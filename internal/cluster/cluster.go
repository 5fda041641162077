// Package cluster models the consolidated virtual cluster of the paper's
// testbed: physical hosts (each a contention.Node), virtual machines
// grouped into per-host application units, and placements of those units
// onto hosts subject to the paper's co-location rules (Section 3.1):
// VMs of the same application are grouped four to a host, vCPUs are never
// overcommitted, and at most two distinct applications share a host.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/contention"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Cluster is a set of identical physical hosts behind one switch.
type Cluster struct {
	HostSpec contention.Node
	NumHosts int
	// Net parameters of the 10 GbE interconnect (alpha-beta model).
	NetLatencyUs float64 // per-message latency in microseconds
	NetBWGbps    float64 // link bandwidth in Gb/s
}

// Default returns the paper's private testbed: 8 hosts of 16 cores behind
// a 10 GbE switch.
func Default() Cluster {
	return Cluster{
		HostSpec:     contention.DefaultNode(),
		NumHosts:     8,
		NetLatencyUs: 30,
		NetBWGbps:    10,
	}
}

// Validate reports whether the cluster configuration is usable.
func (c Cluster) Validate() error {
	if c.NumHosts <= 0 {
		return errors.New("cluster: need at least one host")
	}
	if err := c.HostSpec.Validate(); err != nil {
		return fmt.Errorf("cluster host spec: %w", err)
	}
	if c.NetLatencyUs < 0 || c.NetBWGbps <= 0 {
		return errors.New("cluster: invalid network parameters")
	}
	return nil
}

// UnitCores is the size of one application unit: 4 dual-core VMs pinned to
// 8 physical cores (Section 3.1).
const UnitCores = 8

// MaxAppsPerHost is the pairwise co-location limit of the model
// (Limitations, Section 1).
const MaxAppsPerHost = 2

// Placement assigns application units to host slots. Each host has
// HostSlots slots of UnitCores cores; a slot holds the name of the
// application whose unit occupies it, or "" when empty.
type Placement struct {
	NumHosts  int
	HostSlots int
	// appsLimit is the maximum number of distinct applications per host
	// (0 means the paper's pairwise default, MaxAppsPerHost). Raising it
	// requires combining co-runner scores per Section 4.4 — see
	// bubble.CombineScores.
	appsLimit int
	slots     [][]string
}

// NewPlacement returns an empty placement for numHosts hosts with
// slotsPerHost unit slots each, under the paper's pairwise co-location
// rule.
func NewPlacement(numHosts, slotsPerHost int) (*Placement, error) {
	return NewPlacementLimit(numHosts, slotsPerHost, 0)
}

// NewPlacementLimit is NewPlacement with an explicit per-host limit on
// distinct applications (0 = MaxAppsPerHost, the paper's pairwise rule).
func NewPlacementLimit(numHosts, slotsPerHost, appsLimit int) (*Placement, error) {
	if numHosts <= 0 || slotsPerHost <= 0 {
		return nil, errors.New("cluster: non-positive placement dimensions")
	}
	if appsLimit < 0 {
		return nil, errors.New("cluster: negative apps-per-host limit")
	}
	// One backing array for all rows: a fleet-scale placement is two
	// allocations instead of numHosts+1, which the search's clone and
	// random-init paths feel directly. Rows are full-capacity slices, so
	// no append can ever bleed across a row boundary.
	backing := make([]string, numHosts*slotsPerHost)
	s := make([][]string, numHosts)
	for i := range s {
		s[i] = backing[i*slotsPerHost : (i+1)*slotsPerHost : (i+1)*slotsPerHost]
	}
	return &Placement{NumHosts: numHosts, HostSlots: slotsPerHost, appsLimit: appsLimit, slots: s}, nil
}

// AppsPerHostLimit returns the effective per-host distinct-app limit.
func (p *Placement) AppsPerHostLimit() int {
	if p.appsLimit == 0 {
		return MaxAppsPerHost
	}
	return p.appsLimit
}

// Clone returns a deep copy of the placement.
func (p *Placement) Clone() *Placement {
	c, _ := NewPlacementLimit(p.NumHosts, p.HostSlots, p.appsLimit)
	for h := range p.slots {
		copy(c.slots[h], p.slots[h])
	}
	return c
}

// Set places (or clears, with app == "") a unit of app at the given host
// slot.
func (p *Placement) Set(host, slot int, app string) error {
	if host < 0 || host >= p.NumHosts || slot < 0 || slot >= p.HostSlots {
		return fmt.Errorf("cluster: slot (%d,%d) out of range", host, slot)
	}
	p.slots[host][slot] = app
	return nil
}

// At returns the app occupying the given host slot ("" when empty).
func (p *Placement) At(host, slot int) string { return p.slots[host][slot] }

// Slots returns the slot row of one host for read-only scans, such as
// mirroring a placement into the search's int32 grid. Callers must not
// mutate or retain the returned slice — it aliases the placement.
func (p *Placement) Slots(host int) []string { return p.slots[host] }

// Apps returns the distinct application names present, sorted.
func (p *Placement) Apps() []string {
	seen := map[string]bool{}
	for _, hs := range p.slots {
		for _, a := range hs {
			if a != "" {
				seen[a] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// HostApps returns the distinct apps on one host, sorted.
func (p *Placement) HostApps(host int) []string {
	seen := map[string]bool{}
	for _, a := range p.slots[host] {
		if a != "" {
			seen[a] = true
		}
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// UnitPos identifies one unit slot in a placement.
type UnitPos struct{ Host, Slot int }

// UnitPositions returns the slots occupied by app, ordered by host then
// slot. The first position hosts the application's master.
func (p *Placement) UnitPositions(app string) []UnitPos {
	var out []UnitPos
	for h, hs := range p.slots {
		for s, a := range hs {
			if a == app {
				out = append(out, UnitPos{Host: h, Slot: s})
			}
		}
	}
	return out
}

// UnitsOf returns the number of units app occupies.
func (p *Placement) UnitsOf(app string) int {
	n := 0
	for _, hs := range p.slots {
		for _, a := range hs {
			if a == app {
				n++
			}
		}
	}
	return n
}

// Validate checks the co-location rule: at most AppsPerHostLimit distinct
// applications per host.
func (p *Placement) Validate() error {
	limit := p.AppsPerHostLimit()
	for h, row := range p.slots {
		if n := Distinct(row, ""); n > limit {
			return fmt.Errorf("cluster: host %d has %d distinct apps (max %d)", h, n, limit)
		}
	}
	return nil
}

// Distinct counts the distinct non-empty values on one host's slot row —
// the co-location rule's measure, shared by the string placement and the
// int32 cell form the placement search runs on (where empty is -1).
func Distinct[T comparable](row []T, empty T) int {
	n := 0
	for i, a := range row {
		if a == empty {
			continue
		}
		dup := false
		for _, b := range row[:i] {
			if b == a {
				dup = true
				break
			}
		}
		if !dup {
			n++
		}
	}
	return n
}

// String renders the placement as a compact host table.
func (p *Placement) String() string {
	var b strings.Builder
	for h, hs := range p.slots {
		fmt.Fprintf(&b, "host%d[", h)
		for s, a := range hs {
			if s > 0 {
				b.WriteByte(' ')
			}
			if a == "" {
				b.WriteByte('-')
			} else {
				b.WriteString(a)
			}
		}
		b.WriteByte(']')
		if h != len(p.slots)-1 {
			b.WriteByte(' ')
		}
	}
	return b.String()
}

// Demand describes how many units each application needs placed.
type Demand struct {
	App   string
	Units int
}

// SampleCells draws a random assignment of units satisfying the
// co-location rule straight into cells — the flat host-major slot array
// (-1 = empty) of a cluster with slotsPerHost slots per host — by
// rejection sampling over random slot permutations. units lists one app
// id per unit, in demand order, and must fit the surviving slots; limit
// is the effective distinct-app limit; down (nil, or one flag per host)
// marks crashed hosts, whose slots stay empty; perm is scratch of
// len(cells). It fails when the units exceed the surviving slots, and
// after maxTries attempts (0 = 1000).
func SampleCells(rng *sim.RNG, cells, perm []int32, slotsPerHost, limit int, units []int32, down []bool, maxTries int) error {
	surviving := len(cells)
	for _, d := range down {
		if d {
			surviving -= slotsPerHost
		}
	}
	if len(units) > surviving {
		return fmt.Errorf("cluster: %d units exceed %d surviving slots", len(units), surviving)
	}
	if maxTries <= 0 {
		maxTries = 1000
	}
	for try := 0; try < maxTries; try++ {
		for i := range cells {
			cells[i] = -1
		}
		// Walk the slot permutation in order, skipping crashed hosts'
		// slots; with no down hosts the walk is exactly perm[0:len(units)],
		// preserving the fault-free draw sequence.
		rng.PermInto(perm)
		i := 0
		for _, pos := range perm {
			if i == len(units) {
				break
			}
			if down != nil && down[int(pos)/slotsPerHost] {
				continue
			}
			cells[pos] = units[i]
			i++
		}
		valid := true
		for base := 0; base < len(cells) && valid; base += slotsPerHost {
			valid = Distinct(cells[base:base+slotsPerHost], -1) <= limit
		}
		if valid {
			return nil
		}
	}
	return errors.New("cluster: could not sample a valid random placement")
}

// PlacementFromCells names a cell array back into a Placement: cell
// value id becomes names[id], -1 stays empty. It is the one place the
// search's int32 state crosses back to the string boundary format.
func PlacementFromCells(numHosts, slotsPerHost, appsLimit int, cells []int32, names []string) (*Placement, error) {
	p, err := NewPlacementLimit(numHosts, slotsPerHost, appsLimit)
	if err != nil {
		return nil, err
	}
	if len(cells) != numHosts*slotsPerHost {
		return nil, fmt.Errorf("cluster: %d cells for %dx%d slots", len(cells), numHosts, slotsPerHost)
	}
	for h, row := range p.slots {
		for s, id := range cells[h*slotsPerHost : (h+1)*slotsPerHost] {
			if id >= 0 {
				row[s] = names[id]
			}
		}
	}
	return p, nil
}

// PackedPlacement builds the deterministic placement that fills hosts in
// order, one demand after another. It is used as a canonical starting
// point and in tests. The result may violate Validate if demands are not
// unit-aligned with hosts; the caller should check.
func PackedPlacement(numHosts, slotsPerHost int, demands []Demand) (*Placement, error) {
	p, err := NewPlacement(numHosts, slotsPerHost)
	if err != nil {
		return nil, err
	}
	host, slot := 0, 0
	for _, d := range demands {
		for i := 0; i < d.Units; i++ {
			if host >= numHosts {
				return nil, errors.New("cluster: demands exceed capacity")
			}
			p.slots[host][slot] = d.App
			slot++
			if slot == slotsPerHost {
				slot = 0
				host++
			}
		}
	}
	return p, nil
}

// Metric names published by RecordOccupancy. The per-app units gauge
// carries an app label.
const (
	metricHostsTotal = "cluster_hosts_total"
	metricSlotsTotal = "cluster_slots_total"
	metricHostsUsed  = "cluster_hosts_used"
	metricSlotsUsed  = "cluster_slots_used"
	metricAppsPlaced = "cluster_apps_placed"
	metricAppUnits   = "cluster_app_units"
)

// RecordOccupancy publishes a placement's occupancy as gauges: cluster
// dimensions, hosts and slots in use, applications placed, and per-app
// unit counts. A nil registry is a no-op.
func RecordOccupancy(reg *telemetry.Registry, p *Placement) {
	if reg == nil || p == nil {
		return
	}
	reg.Gauge(metricHostsTotal).Set(float64(p.NumHosts))
	reg.Gauge(metricSlotsTotal).Set(float64(p.NumHosts * p.HostSlots))
	hostsUsed, slotsUsed := 0, 0
	for h := 0; h < p.NumHosts; h++ {
		used := false
		for s := 0; s < p.HostSlots; s++ {
			if p.At(h, s) != "" {
				slotsUsed++
				used = true
			}
		}
		if used {
			hostsUsed++
		}
	}
	reg.Gauge(metricHostsUsed).Set(float64(hostsUsed))
	reg.Gauge(metricSlotsUsed).Set(float64(slotsUsed))
	apps := p.Apps()
	reg.Gauge(metricAppsPlaced).Set(float64(len(apps)))
	for _, a := range apps {
		reg.Gauge(telemetry.Label(metricAppUnits, "app", a)).Set(float64(p.UnitsOf(a)))
	}
}
