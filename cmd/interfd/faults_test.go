package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// writePlan marshals a fault plan into a temp file for the -faults flag.
func writePlan(t *testing.T, plan fault.Plan) string {
	t.Helper()
	raw, err := json.MarshalIndent(plan, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDaemonSurvivesFaultPlan is the fault-injection acceptance test: with
// two node crashes and 20% profile-cell loss at seed 1, the daemon must
// complete its rounds and exit zero, /metrics must export a positive
// model_fallback_total and per-kind fault_injected_total, and every
// surviving workload keeps a working predictor.
func TestDaemonSurvivesFaultPlan(t *testing.T) {
	plan := fault.Plan{
		Seed: 1,
		Faults: []fault.Fault{
			{Kind: fault.NodeCrash, Host: 2},
			{Kind: fault.NodeCrash, Host: 5},
			{Kind: fault.ProfileCellLoss, Fraction: 0.2},
		},
	}
	// Pause between rounds so the metrics surface stays scrapeable while
	// the faulted daemon is still alive (the rounds themselves are fast).
	base, cancel, errCh, reportPath := startTestDaemon(t, func(c *daemonConfig) {
		c.faultsPath = writePlan(t, plan)
		c.rounds = 2
		c.roundPause = 150 * time.Millisecond
	})
	defer cancel()

	waitFor(t, "fault metrics on /metrics", 30*time.Second, func() bool {
		code, body := get(t, base+"/metrics")
		return code == http.StatusOK &&
			strings.Contains(body, fault.MetricInjected) &&
			strings.Contains(body, `kind="node-crash"`) &&
			strings.Contains(body, `kind="profile-cell-loss"`)
	})

	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exit under faults: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("faulted daemon never finished its rounds")
	}

	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("final report missing: %v", err)
	}
	var rep telemetry.RunReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	c := rep.Metrics.Counters
	if got := c[telemetry.Label(fault.MetricInjected, "kind", "node-crash")]; got != 2 {
		t.Errorf("node-crash injections = %d, want 2", got)
	}
	if got := c[telemetry.Label(fault.MetricInjected, "kind", "profile-cell-loss")]; got != 1 {
		t.Errorf("cell-loss injections = %d, want 1", got)
	}
	if c[fault.MetricCellsLost] == 0 {
		t.Error("no cells recorded lost despite a 20% loss fault")
	}
	var fallbacks uint64
	for name, v := range c {
		if strings.HasPrefix(name, core.MetricModelFallback) {
			fallbacks += v
		}
	}
	if fallbacks == 0 {
		t.Error("model_fallback_total stayed zero under 20% cell loss")
	}
	if got := c["interfd_rounds_total"]; got != 2 {
		t.Errorf("rounds = %d, want 2", got)
	}
	if g := rep.Metrics.Gauges[fault.MetricDownHosts]; g != 2 {
		t.Errorf("fault_down_hosts gauge = %v, want 2", g)
	}
}

// degradeAllHostsPlan degrades every host by factor starting at round 1:
// profiling and round 0 see the clean cluster, so the models are accurate
// at first and then production drifts away from them — the seeded drift
// scenario of the acceptance criteria.
func degradeAllHostsPlan(hosts int, factor float64) fault.Plan {
	plan := fault.Plan{Seed: 1}
	for h := 0; h < hosts; h++ {
		plan.Faults = append(plan.Faults, fault.Fault{
			Kind: fault.NodeDegrade, Host: h, Factor: factor, Round: 1,
		})
	}
	return plan
}

// TestDaemonDriftUnderDegradedHosts is the drift acceptance test: with
// every host degraded from round 1, the live plane must show nonzero
// residual gauges and at least one drift event recommending specific
// cells, and the drained audit log must carry the full decision history.
func TestDaemonDriftUnderDegradedHosts(t *testing.T) {
	var auditPath string
	// The default 4-app mix fills all 16 slots, so co-location (and hence
	// nonzero pressure on the tracked cells) is guaranteed.
	base, cancel, errCh, reportPath := startTestDaemon(t, func(c *daemonConfig) {
		c.faultsPath = writePlan(t, degradeAllHostsPlan(c.hosts, 1.6))
		c.drift.MinObservations = 2
		auditPath = c.driftAuditPath
	})
	defer cancel()

	// The tracker needs two rounds per app to warm up; wait for the first
	// drift event to reach the queryable plane.
	var snap drift.Snapshot
	waitFor(t, "a drift event on /api/drift", 60*time.Second, func() bool {
		code, body := get(t, base+"/api/drift")
		if code != http.StatusOK {
			return false
		}
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("/api/drift is not a snapshot: %v", err)
		}
		return snap.EventsFired >= 1
	})
	if snap.MeanAbsResidual <= 0 {
		t.Errorf("mean abs residual = %v, want > 0 under degraded hosts", snap.MeanAbsResidual)
	}
	if len(snap.Apps) != 4 {
		t.Fatalf("drift snapshot tracks %d apps, want 4", len(snap.Apps))
	}
	for _, app := range snap.Apps {
		if app.ObservedCells == 0 {
			t.Errorf("app %s has no observed cells", app.App)
		}
		if len(app.WorstCells) == 0 || app.WorstCells[0].AbsResidual <= 0 {
			t.Errorf("app %s reports no per-cell residuals: %+v", app.App, app.WorstCells)
		}
	}

	// The decision audit is queryable live as JSON Lines.
	code, body := get(t, base+"/api/decisions")
	if code != http.StatusOK {
		t.Fatalf("/api/decisions = %d", code)
	}
	live, err := drift.LoadAuditJSONL(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/api/decisions is not parsable JSONL: %v", err)
	}
	if len(live) == 0 {
		t.Fatal("no decision records on the live plane")
	}

	// Drain and verify the flushed artifacts.
	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not drain")
	}
	f, err := os.Open(auditPath)
	if err != nil {
		t.Fatalf("flushed decision audit missing: %v", err)
	}
	defer f.Close()
	recs, err := drift.LoadAuditJSONL(f)
	if err != nil {
		t.Fatalf("flushed audit is not parsable: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("flushed audit is empty")
	}
	eventRecorded := false
	for _, rec := range recs {
		if len(rec.Assignment) != 4 || len(rec.Predicted) != 4 {
			t.Errorf("round %d record incomplete: %+v", rec.Round, rec)
		}
		if rec.Observed == nil {
			t.Errorf("round %d has no observed slowdowns", rec.Round)
		}
		for _, ev := range rec.DriftEvents {
			if len(ev.Cells) > 0 {
				eventRecorded = true
				for _, c := range ev.Cells {
					if c.Pressure < 1 || c.Interfering < 1 {
						t.Errorf("event recommends an out-of-matrix cell: %+v", c)
					}
				}
			}
		}
	}
	if !eventRecorded {
		t.Error("no audited drift event recommends specific cells")
	}

	// The final report carries the drift section and nonzero drift series.
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.RunReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Drift == nil {
		t.Error("final report has no drift section")
	}
	if rep.Metrics.Counters[drift.MetricEvents] == 0 {
		t.Error("drift_events_total stayed zero in the final report")
	}
	if rep.Metrics.Gauges[drift.MetricMeanAbsResidual] <= 0 {
		t.Error("drift_mean_abs_residual gauge is zero in the final report")
	}
	appGauge := telemetry.Label(drift.MetricAppResidual, "app", "M.lmps")
	if rep.Metrics.Gauges[appGauge] <= 0 {
		t.Errorf("per-app residual gauge %s is zero", appGauge)
	}
}

// TestDaemonDriftAuditDeterministic runs the same seeded drift scenario
// twice and demands byte-identical decision audit logs — the replayability
// acceptance criterion.
func TestDaemonDriftAuditDeterministic(t *testing.T) {
	run := func() []byte {
		var auditPath string
		_, cancel, errCh, _ := startTestDaemon(t, func(c *daemonConfig) {
			c.faultsPath = writePlan(t, degradeAllHostsPlan(c.hosts, 1.6))
			c.drift.MinObservations = 2
			c.rounds = 3
			c.workers = 1
			auditPath = c.driftAuditPath
		})
		defer cancel()
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("daemon exit: %v", err)
			}
		case <-time.After(120 * time.Second):
			t.Fatal("bounded daemon never finished")
		}
		raw, err := os.ReadFile(auditPath)
		if err != nil {
			t.Fatalf("audit missing: %v", err)
		}
		return raw
	}
	a := run()
	b := run()
	if !bytes.Equal(a, b) {
		t.Errorf("decision audit is not deterministic for a fixed seed:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	recs, err := drift.LoadAuditJSONL(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Errorf("audited rounds = %d, want 3", len(recs))
	}
}

// TestDaemonDrainsWhenProfilingNeverSucceeds forces every model build to
// fail (rate 1 transient profiling failures, no retries budget to spare)
// and checks the daemon drops all workloads, drains, and exits zero.
func TestDaemonDrainsWhenProfilingNeverSucceeds(t *testing.T) {
	plan := fault.Plan{
		Seed:   1,
		Faults: []fault.Fault{{Kind: fault.ProfilingFailure, Rate: 1}},
	}
	_, cancel, errCh, reportPath := startTestDaemon(t, func(c *daemonConfig) {
		c.faultsPath = writePlan(t, plan)
		c.rounds = 2
		c.profileRetries = 1
		c.profileBackoff = time.Millisecond
	})
	defer cancel()

	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon should drain, not fail: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("draining daemon never exited")
	}
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("final report missing: %v", err)
	}
	var rep telemetry.RunReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	c := rep.Metrics.Counters
	if got := c["interfd_workloads_dropped_total"]; got != 4 {
		t.Errorf("dropped workloads = %d, want 4", got)
	}
	// Every workload retried once before dropping.
	if got := c["interfd_profile_retries_total"]; got != 4 {
		t.Errorf("profile retries = %d, want 4", got)
	}
	if c["interfd_rounds_total"] != 0 {
		t.Error("rounds ran despite an empty mix")
	}
}
