package drift

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden files")

func newTracker(t *testing.T, cfg Config, reg *telemetry.Registry) *Tracker {
	t.Helper()
	tr, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero stale-after", func(c *Config) { c.StaleAfter = 0 }},
		{"zero min observations", func(c *Config) { c.MinObservations = 0 }},
		{"negative cooldown", func(c *Config) { c.EventCooldown = -1 }},
	} {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		if _, err := New(cfg, nil); err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		}
	}
	if _, err := New(DefaultConfig(), nil); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	tr := newTracker(t, DefaultConfig(), nil)
	if err := tr.Register("", 3, 4, 0); err == nil {
		t.Error("empty app name accepted")
	}
	if err := tr.Register("a", 0, 4, 0); err == nil {
		t.Error("zero pressures accepted")
	}
	if err := tr.Register("a", 3, 0, 0); err == nil {
		t.Error("zero nodes accepted")
	}
	if err := tr.Observe("ghost", 1, 1, 1.0, 1.1, 0); err == nil {
		t.Error("observation for unregistered app accepted")
	}
	if err := tr.Register("a", 3, 4, 0); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]float64{{0, 1}, {1, 0}, {-1, 1}, {math.NaN(), 1}, {1, math.Inf(1)}} {
		if err := tr.Observe("a", 1, 1, pair[0], pair[1], 0); err == nil {
			t.Errorf("invalid pair %v accepted", pair)
		}
	}
}

// TestObserveCreditAssignment pins the bilinear credit split: a fractional
// coordinate must touch exactly the four surrounding cells with weights
// matching online.Estimator's assignment.
func TestObserveCreditAssignment(t *testing.T) {
	tr := newTracker(t, DefaultConfig(), nil)
	if err := tr.Register("a", 3, 4, 0); err != nil {
		t.Fatal(err)
	}
	// pressure 1.5, count 2.5 -> rows 0,1 (pressures 1,2), cols 2,3, each
	// with weight 0.25.
	if err := tr.Observe("a", 1.5, 2.5, 1.0, 1.5, 1); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	if len(snap.Apps) != 1 {
		t.Fatalf("apps = %d, want 1", len(snap.Apps))
	}
	app := snap.Apps[0]
	if app.ObservedCells != 4 {
		t.Fatalf("observed cells = %d, want 4", app.ObservedCells)
	}
	want := map[[2]float64]bool{{1, 2}: true, {1, 3}: true, {2, 2}: true, {2, 3}: true}
	for _, c := range app.WorstCells {
		if !want[[2]float64{c.Pressure, float64(c.Interfering)}] {
			t.Errorf("unexpected credited cell (%v, %d)", c.Pressure, c.Interfering)
		}
		// First observation seeds the EWMA with the raw residual: +50%.
		if math.Abs(c.Residual-0.5) > 1e-12 || math.Abs(c.AbsResidual-0.5) > 1e-12 {
			t.Errorf("cell (%v,%d) residual = (%v, %v), want 0.5", c.Pressure, c.Interfering, c.Residual, c.AbsResidual)
		}
	}
	if app.RecentAbsResidual != 0.5 {
		t.Errorf("recent abs residual = %v, want 0.5", app.RecentAbsResidual)
	}
	if math.Abs(app.CalibrationRatio-1.5) > 1e-12 {
		t.Errorf("calibration = %v, want 1.5", app.CalibrationRatio)
	}
}

// TestObserveIntegerCoordinates: an exact integer coordinate credits one
// cell with full weight.
func TestObserveIntegerCoordinates(t *testing.T) {
	tr := newTracker(t, DefaultConfig(), nil)
	if err := tr.Register("a", 3, 4, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe("a", 2, 3, 1.0, 1.2, 1); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	if got := snap.Apps[0].ObservedCells; got != 1 {
		t.Fatalf("observed cells = %d, want 1", got)
	}
	c := snap.Apps[0].WorstCells[0]
	if c.Pressure != 2 || c.Interfering != 3 {
		t.Errorf("credited cell (%v, %d), want (2, 3)", c.Pressure, c.Interfering)
	}
}

// TestObserveInterferenceFree: pairs at zero pressure or count update the
// app EWMA but touch no matrix cell (column 0 is definitional).
func TestObserveInterferenceFree(t *testing.T) {
	tr := newTracker(t, DefaultConfig(), nil)
	if err := tr.Register("a", 3, 4, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe("a", 0, 0, 1.0, 1.3, 1); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	if got := snap.Apps[0].ObservedCells; got != 0 {
		t.Errorf("observed cells = %d, want 0", got)
	}
	if got := snap.Apps[0].Observations; got != 1 {
		t.Errorf("observations = %d, want 1", got)
	}
}

// TestObserveClampsOutOfRange: coordinates past the matrix edge clamp to
// the last row/column instead of being dropped.
func TestObserveClampsOutOfRange(t *testing.T) {
	tr := newTracker(t, DefaultConfig(), nil)
	if err := tr.Register("a", 3, 4, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe("a", 99, 99, 1.0, 1.2, 1); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	if got := snap.Apps[0].ObservedCells; got != 1 {
		t.Fatalf("observed cells = %d, want 1", got)
	}
	c := snap.Apps[0].WorstCells[0]
	if c.Pressure != 3 || c.Interfering != 4 {
		t.Errorf("clamped cell (%v, %d), want (3, 4)", c.Pressure, c.Interfering)
	}
}

// TestResidualEventFiresAndCoolsDown drives an application past the
// residual threshold, checks the event names the bad cells, and checks the
// cooldown suppresses an immediate refire.
func TestResidualEventFiresAndCoolsDown(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinObservations = 4
	cfg.EventCooldown = 5
	tr := newTracker(t, cfg, nil)
	if err := tr.Register("bad", 3, 4, 0); err != nil {
		t.Fatal(err)
	}
	round := 0
	for ; round < 4; round++ {
		// Consistent +40% under-prediction at cell (2, 2).
		if err := tr.Observe("bad", 2, 2, 1.0, 1.4, round); err != nil {
			t.Fatal(err)
		}
		evs := tr.EndRound(round)
		if round < 3 && len(evs) != 0 {
			t.Fatalf("round %d: event fired before warm-up: %+v", round, evs)
		}
		if round == 3 {
			if len(evs) != 1 {
				t.Fatalf("round 3: events = %d, want 1", len(evs))
			}
			ev := evs[0]
			if ev.App != "bad" || ev.Reason != ReasonResidual {
				t.Errorf("event = %+v, want residual event for bad", ev)
			}
			if ev.RecentAbsResidual <= residualThreshold {
				t.Errorf("event residual %v not above threshold", ev.RecentAbsResidual)
			}
			if len(ev.Cells) == 0 {
				t.Fatal("event recommends no cells")
			}
			c := ev.Cells[0]
			if c.Pressure != 2 || c.Interfering != 2 {
				t.Errorf("worst cell (%v, %d), want (2, 2)", c.Pressure, c.Interfering)
			}
			if c.AbsResidual <= residualThreshold {
				t.Errorf("recommended cell residual %v not above threshold", c.AbsResidual)
			}
		}
	}
	// Still drifting, but inside the cooldown window: no refire.
	if err := tr.Observe("bad", 2, 2, 1.0, 1.4, round); err != nil {
		t.Fatal(err)
	}
	if evs := tr.EndRound(round); len(evs) != 0 {
		t.Errorf("event refired inside cooldown: %+v", evs)
	}
	// Rounds 5-7 are still inside the window (last event at round 3);
	// round 8 is the first past the cooldown and refires.
	for round++; round < 8; round++ {
		tr.Observe("bad", 2, 2, 1.0, 1.4, round)
		if evs := tr.EndRound(round); len(evs) != 0 {
			t.Fatalf("round %d: event inside cooldown: %+v", round, evs)
		}
	}
	tr.Observe("bad", 2, 2, 1.0, 1.4, round)
	if evs := tr.EndRound(round); len(evs) != 1 {
		t.Errorf("post-cooldown round %d: events = %d, want 1", round, len(evs))
	}
}

// TestStalenessEvent: a well-calibrated cell that stops being confirmed
// eventually counts stale and fires a staleness event.
func TestStalenessEvent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinObservations = 2
	cfg.StaleAfter = 3
	cfg.EventCooldown = 100
	tr := newTracker(t, cfg, nil)
	if err := tr.Register("ok", 3, 4, 0); err != nil {
		t.Fatal(err)
	}
	// Two confirming observations at cell (1, 1) in rounds 0-1.
	for r := 0; r < 2; r++ {
		if err := tr.Observe("ok", 1, 1, 1.0, 1.02, r); err != nil {
			t.Fatal(err)
		}
		if evs := tr.EndRound(r); len(evs) != 0 {
			t.Fatalf("round %d: unexpected event %+v", r, evs)
		}
	}
	// Rounds 2-4: silence. Staleness at round 4 is 3 (<= StaleAfter).
	for r := 2; r <= 4; r++ {
		if evs := tr.EndRound(r); len(evs) != 0 {
			t.Fatalf("round %d: premature staleness event %+v", r, evs)
		}
	}
	// Round 5: staleness 4 > 3 -> event.
	evs := tr.EndRound(5)
	if len(evs) != 1 {
		t.Fatalf("round 5: events = %d, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Reason != ReasonStaleness || ev.StaleCells != 1 {
		t.Errorf("event = %+v, want staleness with 1 stale cell", ev)
	}
	if len(ev.Cells) != 1 || ev.Cells[0].Pressure != 1 || ev.Cells[0].Interfering != 1 {
		t.Errorf("recommended cells = %+v, want the single (1,1) cell", ev.Cells)
	}
	if ev.Cells[0].Staleness != 4 {
		t.Errorf("staleness = %d, want 4", ev.Cells[0].Staleness)
	}
}

// TestReRegisterResets: re-registering (the re-profiled-model case) wipes
// residual and staleness state.
func TestReRegisterResets(t *testing.T) {
	tr := newTracker(t, DefaultConfig(), nil)
	if err := tr.Register("a", 3, 4, 0); err != nil {
		t.Fatal(err)
	}
	tr.Observe("a", 2, 2, 1.0, 1.5, 1)
	if snap := tr.Snapshot(); snap.Apps[0].Observations != 1 {
		t.Fatal("setup failed")
	}
	if err := tr.Register("a", 3, 4, 5); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	if snap.Apps[0].Observations != 0 || snap.Apps[0].ObservedCells != 0 {
		t.Errorf("re-register kept state: %+v", snap.Apps[0])
	}
}

// TestEndRoundFleetStats checks mean/p95/calibration aggregation across
// applications against hand-computed values.
func TestEndRoundFleetStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := newTracker(t, DefaultConfig(), reg)
	if err := tr.Register("a", 3, 4, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register("b", 3, 4, 0); err != nil {
		t.Fatal(err)
	}
	// Integer coordinates so each observation credits exactly one cell.
	tr.Observe("a", 1, 1, 1.0, 1.2, 1) // abs residual 0.2
	tr.Observe("b", 2, 2, 2.0, 2.2, 1) // abs residual 0.1
	tr.EndRound(1)
	snap := reg.Snapshot()
	if got := snap.Gauges[MetricMeanAbsResidual]; math.Abs(got-0.15) > 1e-9 {
		t.Errorf("mean abs residual = %v, want 0.15", got)
	}
	if got := snap.Gauges[MetricP95AbsResidual]; math.Abs(got-0.2) > 1e-9 {
		t.Errorf("p95 abs residual = %v, want 0.2", got)
	}
	wantCalib := (1.2 + 2.2) / (1.0 + 2.0)
	if got := snap.Gauges[MetricCalibrationRatio]; math.Abs(got-wantCalib) > 1e-9 {
		t.Errorf("calibration = %v, want %v", got, wantCalib)
	}
	if got := snap.Gauges[MetricCellsTracked]; got != 24 {
		t.Errorf("cells tracked = %v, want 24", got)
	}
	if got := snap.Counters[MetricObservations]; got != 2 {
		t.Errorf("observations = %v, want 2", got)
	}
}

// TestObserveAllocFree pins the satellite requirement: the hot path must
// not allocate per observation.
func TestObserveAllocFree(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := newTracker(t, DefaultConfig(), reg)
	if err := tr.Register("a", 5, 8, 0); err != nil {
		t.Fatal(err)
	}
	round := 0
	allocs := testing.AllocsPerRun(1000, func() {
		round++
		if err := tr.Observe("a", 2.3, 4.7, 1.0, 1.17, round); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %v per call, want 0", allocs)
	}
}

// TestGoldenPrometheus pins HELP/TYPE lines and label sanitization for
// every drift series, including an app name that abuses label syntax.
func TestGoldenPrometheus(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig()
	cfg.MinObservations = 2
	tr := newTracker(t, cfg, reg)
	if err := tr.Register("M.lmps", 3, 4, 0); err != nil {
		t.Fatal(err)
	}
	// An app name with quotes and a newline must come out sanitized, not
	// corrupt the exposition frame.
	if err := tr.Register("evil\"app\nname", 2, 2, 0); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 3; r++ {
		tr.Observe("M.lmps", 2, 2, 1.0, 1.4, r)
		tr.Observe("evil\"app\nname", 1, 1, 1.0, 1.05, r)
		tr.EndRound(r)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics.golden.prom")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run Golden -update ./internal/drift`): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, buf.Bytes(), want)
	}
	// Every drift series must carry both a HELP and a TYPE line.
	for _, name := range []string{
		MetricObservations, MetricAbsResidual, MetricMeanAbsResidual,
		MetricP95AbsResidual, MetricCalibrationRatio, MetricStaleCells,
		MetricCellsTracked, MetricEvents, MetricAppResidual, MetricAppStaleCells,
	} {
		if !bytes.Contains(buf.Bytes(), []byte("# HELP "+name+" ")) {
			t.Errorf("exposition missing HELP for %s", name)
		}
		if !bytes.Contains(buf.Bytes(), []byte("# TYPE "+name+" ")) {
			t.Errorf("exposition missing TYPE for %s", name)
		}
	}
}

// TestSnapshotDeterministic: identical observation streams produce
// identical snapshots with sorted application order.
func TestSnapshotDeterministic(t *testing.T) {
	build := func() Snapshot {
		tr := newTracker(t, DefaultConfig(), nil)
		for _, app := range []string{"z", "a", "m"} {
			if err := tr.Register(app, 3, 4, 0); err != nil {
				t.Fatal(err)
			}
		}
		for r := 1; r <= 5; r++ {
			tr.Observe("z", 1.5, 2.5, 1.0, 1.2, r)
			tr.Observe("a", 2, 3, 1.5, 1.4, r)
			tr.Observe("m", 1, 1, 2.0, 2.5, r)
			tr.EndRound(r)
		}
		return tr.Snapshot()
	}
	a, b := build(), build()
	aj := mustJSON(t, a)
	bj := mustJSON(t, b)
	if !bytes.Equal(aj, bj) {
		t.Errorf("snapshots differ:\n%s\n%s", aj, bj)
	}
	if len(a.Apps) != 3 || a.Apps[0].App != "a" || a.Apps[1].App != "m" || a.Apps[2].App != "z" {
		t.Errorf("apps not sorted: %+v", a.Apps)
	}
}

func TestResidualStats(t *testing.T) {
	if m, p := residualStats(nil); m != 0 || p != 0 {
		t.Errorf("empty stats = (%v, %v), want (0, 0)", m, p)
	}
	vs := []float64{0.3, 0.1, 0.2}
	m, p := residualStats(vs)
	if math.Abs(m-0.2) > 1e-12 {
		t.Errorf("mean = %v, want 0.2", m)
	}
	if p != 0.3 {
		t.Errorf("p95 = %v, want 0.3", p)
	}
}
