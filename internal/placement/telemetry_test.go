package placement

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/telemetry"
)

// searchWithTelemetry runs one instrumented search and returns the
// registry snapshot alongside the result.
func searchWithTelemetry(t *testing.T, seed int64) (Result, telemetry.Snapshot) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig(seed)
	cfg.Iterations = 300
	cfg.Telemetry = reg
	res, err := Search(testRequest(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, reg.Snapshot()
}

// TestSearchTelemetryDeterministic: for a fixed seed, the acceptance
// counters and closing gauges must be bit-identical across runs —
// attaching telemetry must never perturb (or be perturbed by) the search
// trajectory.
func TestSearchTelemetryDeterministic(t *testing.T) {
	resA, snapA := searchWithTelemetry(t, 7)
	resB, snapB := searchWithTelemetry(t, 7)

	if resA.Objective != resB.Objective {
		t.Fatalf("search itself is nondeterministic: %v vs %v", resA.Objective, resB.Objective)
	}
	for _, name := range []string{
		metricIterations, metricProposals, metricAccepted, MetricRejected, metricInvalid,
	} {
		if snapA.Counters[name] != snapB.Counters[name] {
			t.Errorf("%s differs across identical runs: %d vs %d",
				name, snapA.Counters[name], snapB.Counters[name])
		}
	}
	if snapA.Gauges[metricAcceptanceRate] != snapB.Gauges[metricAcceptanceRate] {
		t.Errorf("acceptance rate differs: %v vs %v",
			snapA.Gauges[metricAcceptanceRate], snapB.Gauges[metricAcceptanceRate])
	}
	// The whole snapshot must therefore serialize identically.
	ja, err := json.Marshal(snapA)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(snapB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Error("full telemetry snapshots differ across identical runs")
	}
}

// TestSearchTelemetryShape checks the recorded telemetry is internally
// consistent: accepted+rejected <= proposals, and a final best objective
// matching the returned result.
func TestSearchTelemetryShape(t *testing.T) {
	res, snap := searchWithTelemetry(t, 11)

	if snap.Counters[metricIterations] == 0 {
		t.Fatal("no iterations recorded")
	}
	acc, rej := snap.Counters[metricAccepted], snap.Counters[MetricRejected]
	if acc+rej > snap.Counters[metricProposals] {
		t.Errorf("accepted (%d) + rejected (%d) exceeds proposals (%d)",
			acc, rej, snap.Counters[metricProposals])
	}
	if got := snap.Gauges[MetricBestObjective]; got != res.Objective {
		t.Errorf("best-objective gauge = %v, want the result objective %v", got, res.Objective)
	}
}

// TestSearchWithoutTelemetryUnchanged pins that the nil-telemetry path
// returns exactly the same result as the instrumented one.
func TestSearchWithoutTelemetryUnchanged(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Iterations = 300
	plain, err := Search(testRequest(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	instr, _ := searchWithTelemetry(t, 7)
	if plain.Objective != instr.Objective {
		t.Errorf("telemetry perturbed the search: %v vs %v", plain.Objective, instr.Objective)
	}
	if plain.Evaluations != instr.Evaluations {
		t.Errorf("telemetry changed evaluation count: %d vs %d", plain.Evaluations, instr.Evaluations)
	}
}

// TestSearchTelemetryAddsNoAllocations: an instrumented flat search
// publishes its counters and gauges once, at the end, so on a warm
// registry it allocates what the bare search allocates (27 mallocs,
// 1.9 KB). A search that recorded two points per step per restart
// allocated 2.2 MB here.
func TestSearchTelemetryAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// A flat search runs on one goroutine. With more than one P, a
	// rescheduled test goroutine meets another P's empty pool and the
	// runtime grows that P's pool storage, which MemStats charges to
	// whichever search was running; one P keeps the pool where it was
	// warmed.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	req := testRequest()
	bare, instr := DefaultConfig(5), DefaultConfig(5)
	instr.Telemetry = telemetry.NewRegistry()
	// perSearch returns the mean mallocs and bytes of one search, with the
	// collector off so a cycle cannot empty the workspace pool.
	perSearch := func(cfg Config) (mallocs, bytes uint64) {
		const runs = 20
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := Search(req, cfg); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	perSearch(bare)  // warm the workspace pool
	perSearch(instr) // and the registry's handles
	// The runtime's own bookkeeping moves a mean by a few bytes now and
	// then; the least of three rounds is the search's own figure.
	bareN, bareB, instrN, instrB := uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64)
	for round := 0; round < 3; round++ {
		n, b := perSearch(bare)
		bareN, bareB = min(bareN, n), min(bareB, b)
		n, b = perSearch(instr)
		instrN, instrB = min(instrN, n), min(instrB, b)
	}
	t.Logf("bare: %d mallocs, %d B; instrumented: %d mallocs, %d B per search", bareN, bareB, instrN, instrB)
	if instrN > bareN || instrB > bareB {
		t.Errorf("telemetry adds allocations: %d mallocs, %d B per search against %d, %d B bare",
			instrN, instrB, bareN, bareB)
	}
}
