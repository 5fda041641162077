package placement

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/telemetry"
)

// digestResult folds every observable field of a Result — objective
// bits, QoS verdict, evaluation count, placement layout, per-app
// prediction bits — into one FNV-64a word, so "bitwise identical" is a
// single comparison.
func digestResult(r Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "obj=%016x qos=%v evals=%d place=%s", math.Float64bits(r.Objective), r.QoSSatisfied, r.Evaluations, r.Placement.String())
	apps := make([]string, 0, len(r.Predicted))
	for a := range r.Predicted {
		apps = append(apps, a)
	}
	sort.Strings(apps)
	for _, a := range apps {
		fmt.Fprintf(h, " %s=%016x", a, math.Float64bits(r.Predicted[a]))
	}
	return h.Sum64()
}

// Golden digests of the hierarchical search over a
// goal × QoS × method × seed grid on the 8-host test request: any drift
// in draw discipline, evaluation order, or float accumulation flips a
// digest. Re-baselined once, when the batched two-stream exchange became
// the only exchange algorithm (the previous values pinned the deleted
// one-stream serial annealer). The evaluator count is not a key:
// TestExchangeWorkersDeterministic pins that it cannot matter.
type goldenKey struct {
	goal Goal
	qos  bool
	meth Method
	seed int64
}

var goldenExchange = map[goldenKey]uint64{
	{Best, false, Anneal, 1}:     0xdc1ef4c22ab69a82,
	{Best, false, Anneal, 2}:     0x87c2b77d8668276b,
	{Best, false, Anneal, 3}:     0xad7c023462a287b2,
	{Best, false, HillClimb, 1}:  0xb7c11d843c83893f,
	{Best, false, HillClimb, 2}:  0x4a0f181df7f3557b,
	{Best, false, HillClimb, 3}:  0xb5e8689610519711,
	{Best, true, Anneal, 1}:      0xed2886bf97e180bf,
	{Best, true, Anneal, 2}:      0xffba8c17859cc186,
	{Best, true, Anneal, 3}:      0xad7c023462a287b2,
	{Best, true, HillClimb, 1}:   0xb7c11d843c83893f,
	{Best, true, HillClimb, 2}:   0x4a0f181df7f3557b,
	{Best, true, HillClimb, 3}:   0xb5e8689610519711,
	{Worst, false, Anneal, 1}:    0x75a31d2f1d4f94fd,
	{Worst, false, Anneal, 2}:    0x3862cb6e27687836,
	{Worst, false, Anneal, 3}:    0xf1f4a30ea089cf44,
	{Worst, false, HillClimb, 1}: 0x545a46f838847a82,
	{Worst, false, HillClimb, 2}: 0x23a4d807642909cd,
	{Worst, false, HillClimb, 3}: 0x981bcdff946c64d4,
}

func TestExchangeGoldens(t *testing.T) {
	req := testRequest()
	for key, want := range goldenExchange {
		var qos *QoS
		if key.qos {
			qos = &QoS{App: "sens", MaxNormalized: 1.7}
		}
		cfg := Config{Iterations: 150, Seed: key.seed, Goal: key.goal, Method: key.meth, QoS: qos, Restarts: 2, Cells: 3, ExchangeIters: 200}
		res, err := Search(req, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", key, err)
		}
		if got := digestResult(res); got != want {
			t.Errorf("%+v: digest 0x%016x, want golden 0x%016x", key, got, want)
		}
	}
}

// Golden digests (captured at the commit before the index-native engine,
// at ExchangeWorkers 2 — the batched exchange, so they survived its
// becoming the only one unchanged) of the hierarchical search with three
// restarts per cell and a QoS app whose demand is split across two cells
// — "sens" comes last in request order, so the spread leaves 2 of its
// units in cell 0 and 2 in cell 1, and both cells anneal under the
// constraint on their own sub-index.
type splitGoldenKey struct {
	meth Method
	seed int64
}

var goldenSplitQoS = map[splitGoldenKey]uint64{
	{Anneal, 1}:    0x5ec72a8cb6a3dbb5,
	{Anneal, 2}:    0x5e852fc9b97b72b7,
	{Anneal, 3}:    0x63ffcd9263cc1123,
	{HillClimb, 1}: 0x5f5a448766f1fc06,
	{HillClimb, 2}: 0xaed0572b435dede9,
	{HillClimb, 3}: 0x8f8a753f2d4fbf80,
}

func TestSplitQoSRestartsGoldens(t *testing.T) {
	req := testRequest()
	req.Demands = []cluster.Demand{
		{App: "quiet", Units: 4},
		{App: "noisy1", Units: 4},
		{App: "noisy2", Units: 4},
		{App: "sens", Units: 4},
	}
	b, err := bind(req)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := assignDemands(b, cluster.Partition(req.NumHosts, 3))
	if err != nil {
		t.Fatal(err)
	}
	sens, _ := b.ix.IndexOf("sens")
	holding := 0
	for _, cell := range asg {
		for _, d := range cell {
			if d.id == sens {
				holding++
			}
		}
	}
	if holding != 2 {
		t.Fatalf("the QoS app's demand sits in %d cells, want it split across 2", holding)
	}
	for key, want := range goldenSplitQoS {
		cfg := Config{Iterations: 150, Seed: key.seed, Method: key.meth, QoS: &QoS{App: "sens", MaxNormalized: 1.7},
			Restarts: 3, Cells: 3, ExchangeIters: 200}
		res, err := Search(req, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", key, err)
		}
		if got := digestResult(res); got != want {
			t.Errorf("%+v: digest 0x%016x, want golden 0x%016x", key, got, want)
		}
	}
}

// Golden digests of the search over generated fleets with down hosts —
// same vintage and purpose as goldenExchange, but exercising the spread
// phase, multi-cell merge, and the down-host skip in the exchange draw
// loop.
type fleetGoldenKey struct {
	fleetSeed int64
	cells     int
	round     int
}

var goldenFleet = map[fleetGoldenKey]uint64{
	{1, 2, 0}: 0x804c176216aa090e,
	{1, 2, 2}: 0xcbeb77741cfeea14,
	{1, 5, 0}: 0xd00e3f622748f288,
	{1, 5, 2}: 0x5eee6313ad0815ee,
	{2, 2, 0}: 0x6059f7741a6c50ba,
	{2, 2, 2}: 0x2f87a12e683f6def,
	{2, 5, 0}: 0xcca28303c718698f,
	{2, 5, 2}: 0x2b25f6201237c64a,
}

func propFleetSpec() fleet.Spec {
	return fleet.Spec{
		Name:         "prop",
		TotalHosts:   60,
		SlotsPerHost: 2,
		Templates: []fleet.Template{
			{Name: "core", Weight: 3},
			{Name: "burst", Weight: 1, DegradeFactor: 1.3, StartupRounds: 4},
		},
	}
}

func TestExchangeFleetGoldens(t *testing.T) {
	spec := propFleetSpec()
	for key, want := range goldenFleet {
		f, err := fleet.Generate(spec, key.fleetSeed)
		if err != nil {
			t.Fatal(err)
		}
		down := f.DownAt(key.round)
		req := fleetRequest(t, spec, down, key.fleetSeed*100+int64(key.cells), 12)
		cfg := Config{Iterations: 150, Seed: key.fleetSeed, Restarts: 1, Cells: key.cells, ExchangeIters: 300}
		res, err := Search(req, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", key, err)
		}
		if got := digestResult(res); got != want {
			t.Errorf("%+v: digest 0x%016x, want golden 0x%016x", key, got, want)
		}
	}
}

// TestExchangeWorkersDeterministic: the exchange is a pure function of
// (Request, Config.Seed) — same seed twice is byte-identical (run under
// -race this also shakes out data races in the evaluator fan-out), and
// the digest is identical for every evaluator count, the GOMAXPROCS
// default and a single inline evaluator included (the two-stream draw
// discipline makes the trajectory independent of how proposals are
// striped across evaluators).
func TestExchangeWorkersDeterministic(t *testing.T) {
	spec := propFleetSpec()
	for _, fleetSeed := range []int64{1, 2} {
		f, err := fleet.Generate(spec, fleetSeed)
		if err != nil {
			t.Fatal(err)
		}
		down := f.DownAt(2)
		req := fleetRequest(t, spec, down, fleetSeed*100, 12)
		var ref uint64
		for i, workers := range []int{0, 1, 2, 4, 8} {
			cfg := Config{Iterations: 150, Seed: fleetSeed, Restarts: 2, Cells: 5, ExchangeIters: 300, ExchangeWorkers: workers}
			a, err := Search(req, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Search(req, cfg)
			if err != nil {
				t.Fatal(err)
			}
			da, db := digestResult(a), digestResult(b)
			if da != db {
				t.Fatalf("seed=%d workers=%d: two same-seed runs differ: 0x%016x vs 0x%016x", fleetSeed, workers, da, db)
			}
			if i == 0 {
				ref = da
			} else if da != ref {
				t.Errorf("seed=%d workers=%d: digest 0x%016x differs from workers=0 digest 0x%016x", fleetSeed, workers, da, ref)
			}
		}
	}
}

// TestExchangeSpeculativeImproves: the batched annealer must do its job
// — on a fleet-sized request it accepts exchanges, resolves conflicts,
// and does not end worse than a one-proposal exchange (the cell phase's
// merged result, give or take a single swap).
func TestExchangeSpeculativeImproves(t *testing.T) {
	spec := propFleetSpec()
	f, err := fleet.Generate(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	req := fleetRequest(t, spec, f.DownAt(0), 300, 16)
	cellsOnly, err := Search(req, Config{Iterations: 150, Seed: 9, Restarts: 1, Cells: 5, ExchangeIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	full, err := Search(req, Config{Iterations: 150, Seed: 9, Restarts: 1, Cells: 5, ExchangeIters: 400, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if full.Objective > cellsOnly.Objective {
		t.Errorf("objective %.4f after 400 exchange proposals, worse than %.4f after one", full.Objective, cellsOnly.Objective)
	}
	if reg.Counter(MetricExchangeAccepted).Value() == 0 {
		t.Error("the exchange accepted no proposal")
	}
	if occ := reg.Gauge(MetricExchangeBatchOccupancy).Value(); occ <= 0 || occ > 1 {
		t.Errorf("batch occupancy %v outside (0, 1]", occ)
	}
	if err := full.Placement.Validate(); err != nil {
		t.Errorf("placement invalid: %v", err)
	}
}

func TestExchangeWorkersValidation(t *testing.T) {
	req := testRequest()
	if _, err := Search(req, Config{Iterations: 10, Seed: 1, ExchangeWorkers: -1, Cells: 3}); err == nil || !strings.Contains(err.Error(), "exchange workers") {
		t.Errorf("negative ExchangeWorkers: got err %v, want validation error", err)
	}
	for _, cells := range []int{0, 1} {
		if _, err := Search(req, Config{Iterations: 10, Seed: 1, ExchangeWorkers: 1, Cells: cells}); err == nil || !strings.Contains(err.Error(), "exchange workers") {
			t.Errorf("ExchangeWorkers with the flat search (Cells=%d): got err %v, want validation error", cells, err)
		}
	}
}

// TestAdaptiveCells: the cmd-level sizing helper must keep small
// clusters flat, and on large ones produce a cell count Search accepts
// with at least adaptiveMinCellHosts hosts per cell.
func TestAdaptiveCells(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 64} {
		for _, hosts := range []int{1, 8, 64, 255} {
			if got := AdaptiveCells(hosts, workers); got != 1 {
				t.Errorf("AdaptiveCells(%d, %d) = %d, want 1 (flat below %d hosts)", hosts, workers, got, adaptiveFlatBelow)
			}
		}
		for _, hosts := range []int{256, 300, 1000, 5000, 10000, 100000} {
			got := AdaptiveCells(hosts, workers)
			if got < 2 || got > hosts {
				t.Fatalf("AdaptiveCells(%d, %d) = %d out of [2, hosts]", hosts, workers, got)
			}
			if hosts/got < adaptiveMinCellHosts {
				t.Errorf("AdaptiveCells(%d, %d) = %d leaves %d hosts/cell, want >= %d", hosts, workers, got, hosts/got, adaptiveMinCellHosts)
			}
		}
	}
	// Search must accept the adaptive output on a real request.
	spec := propFleetSpec()
	spec.TotalHosts = 300
	f, err := fleet.Generate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := fleetRequest(t, spec, f.DownAt(0), 42, 12)
	cells := AdaptiveCells(spec.TotalHosts, 4)
	if cells < 2 {
		t.Fatalf("AdaptiveCells(300, 4) = %d, want >= 2", cells)
	}
	if _, err := Search(req, Config{Iterations: 20, Seed: 1, Restarts: 1, Cells: cells, ExchangeIters: 20, ExchangeWorkers: 2}); err != nil {
		t.Fatalf("Search rejected adaptive cell count %d: %v", cells, err)
	}
}
