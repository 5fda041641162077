// Package fault implements deterministic, seed-driven fault injection
// for the simulated cluster: node crashes, node slowdowns, profile-cell
// loss, and transient profiling-run failures. A Plan is a declarative
// list of faults (loaded from a JSON file via the daemons' -faults
// flag); an Injector activates them by round (interfd: the count of
// verified placement decisions) and exposes the state the rest of the
// stack consumes to degrade gracefully: the down-host set for placement,
// per-host slowdown factors and a measurement failure hook for
// measure.Env, and a cell-dropping transform for profile.Matrix that
// forces core predictors onto their naive fallback.
//
// Everything is deterministic in the plan seed: the same plan applied to
// the same workloads always crashes the same hosts, drops the same
// matrix cells, and fails the same profiling runs.
package fault

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Kind identifies a fault class.
type Kind uint8

// Fault kinds.
const (
	// NodeCrash marks a host down: its slots stop accepting units and
	// the placement search routes around it.
	NodeCrash Kind = iota
	// NodeDegrade multiplies every measurement touching the host by
	// Factor — the "slow node" an unmeasured background tenant causes.
	NodeDegrade
	// ProfileCellLoss drops a deterministic Fraction of the measurable
	// cells from profiled matrices, leaving them incomplete.
	ProfileCellLoss
	// ProfilingFailure makes each profiling measurement fail
	// transiently with probability Rate — the retry/backoff path in
	// cmd/interfd exists for this.
	ProfilingFailure
)

var kindNames = map[Kind]string{
	NodeCrash:        "node-crash",
	NodeDegrade:      "node-degrade",
	ProfileCellLoss:  "profile-cell-loss",
	ProfilingFailure: "profiling-failure",
}

// String names the fault kind as it appears in plan files and metric
// labels.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind inverts String.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q", s)
}

// MarshalJSON encodes the kind by name.
func (k Kind) MarshalJSON() ([]byte, error) {
	s, ok := kindNames[k]
	if !ok {
		return nil, fmt.Errorf("fault: unknown kind %d", int(k))
	}
	return json.Marshal(s)
}

// UnmarshalJSON decodes a kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// Fault is one injected fault. Which fields matter depends on Kind:
// Host for NodeCrash/NodeDegrade, Factor (> 1) for NodeDegrade,
// Fraction (0,1] for ProfileCellLoss, Rate (0,1] for ProfilingFailure.
// A fault activates at round Round (via Injector.Activate).
type Fault struct {
	Kind     Kind    `json:"kind"`
	Host     int     `json:"host,omitempty"`
	Factor   float64 `json:"factor,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
	Rate     float64 `json:"rate,omitempty"`
	Round    int     `json:"round,omitempty"`
}

// validate checks the per-kind field constraints.
func (f Fault) validate() error {
	if f.Round < 0 {
		return fmt.Errorf("fault: negative round %d", f.Round)
	}
	switch f.Kind {
	case NodeCrash:
		if f.Host < 0 {
			return fmt.Errorf("fault: node-crash host %d out of range", f.Host)
		}
	case NodeDegrade:
		if f.Host < 0 {
			return fmt.Errorf("fault: node-degrade host %d out of range", f.Host)
		}
		if !(f.Factor > 1) {
			return fmt.Errorf("fault: node-degrade factor %v must be > 1", f.Factor)
		}
	case ProfileCellLoss:
		if !(f.Fraction > 0 && f.Fraction <= 1) {
			return fmt.Errorf("fault: profile-cell-loss fraction %v outside (0,1]", f.Fraction)
		}
	case ProfilingFailure:
		if !(f.Rate > 0 && f.Rate <= 1) {
			return fmt.Errorf("fault: profiling-failure rate %v outside (0,1]", f.Rate)
		}
	default:
		return fmt.Errorf("fault: unknown kind %d", int(f.Kind))
	}
	return nil
}

// Plan is a declarative fault schedule. Seed drives every random choice
// the plan implies (which cells are lost, which runs fail), so the same
// plan is exactly reproducible.
type Plan struct {
	Seed   int64   `json:"seed"`
	Faults []Fault `json:"faults"`
}

// Validate checks every fault. Host upper bounds are the consumer's
// business — the plan does not know the cluster size.
func (p Plan) Validate() error {
	if len(p.Faults) == 0 {
		return errors.New("fault: empty plan")
	}
	for i, f := range p.Faults {
		if err := f.validate(); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}

// MaxHost returns the largest host index any crash or degrade fault
// names, or -1 when none do — consumers validate it against their
// cluster size.
func (p Plan) MaxHost() int {
	max := -1
	for _, f := range p.Faults {
		if (f.Kind == NodeCrash || f.Kind == NodeDegrade) && f.Host > max {
			max = f.Host
		}
	}
	return max
}

// LoadPlan reads and validates a JSON plan file (the -faults flag format;
// see docs/TESTING.md for the schema).
func LoadPlan(path string) (Plan, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, err
	}
	p, err := parsePlan(raw)
	if err != nil {
		return Plan{}, fmt.Errorf("fault: %s: %w", path, err)
	}
	return p, nil
}

// parsePlan decodes and validates the bytes of a plan file. A key the
// schema does not define, or a misspelled one, is an error that names it,
// not a setting silently ignored.
func parsePlan(raw []byte) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return Plan{}, errors.New("fault: data after the plan")
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}
