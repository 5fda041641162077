package main

import (
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/fault"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

const (
	// sampleMask picks the API decisions that are verified: those whose
	// request content hash has these bits clear, a fixed 1 in 512. One
	// verification of a 16-unit placement costs about 0.35 ms and 21 KB
	// (17 of them the ground-truth run), so the sample adds under a
	// microsecond and ~40 B per request: +0.8 % on place_paper's bytes.
	sampleMask = 1<<9 - 1
	// driverIDPrefix starts the request ID of every self-driven decision,
	// all of which are verified; the prefix is reserved for the driver.
	driverIDPrefix = "interfd-round-"
)

// driftPlane verifies decisions the placement service made: it is the
// service's decision sink, and bundles the residual tracker, the decision
// audit log, the raw (unwrapped) models whose heterogeneity policies map
// pressure vectors to matrix coordinates, and the ground-truth environment
// and workload registry a measurement needs.
type driftPlane struct {
	tracker *drift.Tracker
	audit   *drift.AuditLog
	reg     *telemetry.Registry
	bus     *obs.Bus
	log     *slog.Logger
	svc     *serve.Service
	hosts   int

	// Set by the profile phase, before the service is armed; read-only
	// once decisions arrive.
	env    *measure.Env
	inj    *fault.Injector
	models map[string]*core.Model
	mixReg map[string]workloads.Workload

	mu  sync.Mutex // one verification at a time
	seq int        // decisions verified so far
	// backend is what the service is armed with: profile fills the models,
	// observe swaps the down hosts when a crash arms.
	backend serve.Backend
	// driven gets one token per verified self-driven decision.
	driven chan struct{}
}

// onDecision is serve.Config.OnDecision: it runs on the worker that
// searched, after the request's caller has its answer. Every self-driven
// decision and the fixed sample of API decisions go on to observe; the
// rest return here, having allocated and locked nothing.
func (dp *driftPlane) onDecision(d serve.Decision) {
	selfDriven := strings.HasPrefix(d.ID, driverIDPrefix)
	if !selfDriven && d.Hash&sampleMask != 0 {
		return
	}
	if selfDriven {
		// Deferred, so a verification that panics (serve contains it)
		// still releases the driver.
		defer func() {
			select {
			case dp.driven <- struct{}{}:
			default: // an API request borrowed the prefix; nobody is waiting
			}
		}()
	}
	dp.mu.Lock()
	defer dp.mu.Unlock()
	dp.observe(d)
}

// observe closes the prediction loop for one decision: it measures what
// the chosen placement actually does on the ground-truth simulator, feeds
// each application's (predicted, observed) pair into the drift tracker at
// the matrix coordinates the prediction used, fires any drift events onto
// the bus, appends the decision record to the audit log, and arms the
// faults due once this many decisions are verified. The sequence number —
// the count of decisions verified before this one — is the record's Round,
// the tracker's round and the fault plan's; it is the self-driver's round
// index whenever only the driver is talking.
func (dp *driftPlane) observe(d serve.Decision) {
	seq, res := dp.seq, d.Result
	dp.seq++
	cluster.RecordOccupancy(dp.reg, res.Placement)

	actual, err := dp.env.RunPlacement(res.Placement, dp.mixReg)
	if err != nil {
		// The observation plane must never take the daemon down; record
		// the decision without observed values.
		dp.log.Warn("drift ground-truth measurement failed", "request", d.ID, "err", err)
		actual = nil
	}

	dec := drift.Decision{
		Round: seq, Request: d.ID,
		Assignment: map[string][]string{},
		Objective:  res.Objective, Evaluations: res.Evaluations,
		QoSSatisfied: res.QoSSatisfied,
		Predicted:    map[string]float64{},
		CombineHits:  res.CombineHits, CombineMisses: res.CombineMisses,
		DownHosts: slices.Clone(d.DownHosts),
	}
	if dp.inj != nil {
		for h := 0; h < dp.hosts; h++ {
			if f := dp.inj.DegradeFactor(h); f > 1 {
				if dec.DegradedHosts == nil {
					dec.DegradedHosts = map[int]float64{}
				}
				dec.DegradedHosts[h] = f
			}
		}
		for _, n := range dp.inj.Counts() {
			dec.FaultEvents += n
		}
	}

	names := make([]string, 0, len(res.Predicted))
	for name := range res.Predicted {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		predicted := res.Predicted[name]
		dec.Predicted[name] = predicted
		for _, up := range res.Placement.UnitPositions(name) {
			dec.Assignment[name] = append(dec.Assignment[name], fmt.Sprintf("%d:%d", up.Host, up.Slot))
		}
		out, ok := actual[name]
		if !ok {
			continue
		}
		if dec.Observed == nil {
			dec.Observed = map[string]float64{}
			dec.Residuals = map[string]float64{}
		}
		dec.Observed[name] = out.Normalized
		if predicted > 0 {
			dec.Residuals[name] = (out.Normalized - predicted) / predicted
		}
		m := dp.models[name]
		if m == nil || m.Matrix == nil {
			continue
		}
		ps, err := core.PressuresFor(res.Placement, name, dp.backend.Scores)
		if err != nil {
			dp.log.Warn("drift pressure vector failed", "app", name, "err", err)
			continue
		}
		p, cnt, err := m.Policy.Convert(ps)
		if err != nil {
			dp.log.Warn("drift coordinate conversion failed", "app", name, "err", err)
			continue
		}
		if err := dp.tracker.Observe(name, p, cnt, predicted, out.Normalized, seq); err != nil {
			dp.log.Warn("drift observation rejected", "app", name, "err", err)
		}
	}

	dec.DriftEvents = dp.tracker.EndRound(seq)
	for _, ev := range dec.DriftEvents {
		dp.log.Warn("model drift detected", "app", ev.App, "reason", ev.Reason,
			"recent_abs_residual", ev.RecentAbsResidual,
			"stale_cells", ev.StaleCells, "recommended_cells", len(ev.Cells),
			"round", ev.Round)
		dp.bus.Publish("drift_detected", ev)
	}
	dp.audit.Append(dec)
	dp.bus.Publish("decision", dec)

	// The next decision is number seq+1: arm what the plan schedules for
	// it, and route the service around any host that just crashed.
	if dp.inj != nil {
		dp.inj.Activate(seq + 1)
		if downs := dp.inj.DownHosts(); !slices.Equal(downs, dp.backend.DownHosts) {
			dp.backend.DownHosts = downs
			dp.svc.SetBackend(dp.backend)
		}
	}
}
