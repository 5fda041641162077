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

// Golden digests of the pre-speculation serial hierarchical search
// (generated at the commit before exchange.go landed) over a
// goal × QoS × method × seed grid on the 8-host test request. They pin
// the ExchangeWorkers <= 1 path to the historical serial annealer: any
// drift in draw discipline, evaluation order, or float accumulation
// flips a digest.
type goldenKey struct {
	goal Goal
	qos  bool
	meth Method
	seed int64
}

var goldenSerial = map[goldenKey]uint64{
	{Best, false, Anneal, 1}:     0x2489c58670ef5bae,
	{Best, false, Anneal, 2}:     0x451b1a78533e86e0,
	{Best, false, Anneal, 3}:     0x1162a8b90725efaa,
	{Best, false, HillClimb, 1}:  0x8228c0e91ec65c7d,
	{Best, false, HillClimb, 2}:  0xed2a0facd5353927,
	{Best, false, HillClimb, 3}:  0xdd3e3d9a52dd7c3a,
	{Best, true, Anneal, 1}:      0x5bf1931154db9389,
	{Best, true, Anneal, 2}:      0x24db93656b08455e,
	{Best, true, Anneal, 3}:      0x8c5d2737f58d192f,
	{Best, true, HillClimb, 1}:   0x8228c0e91ec65c7d,
	{Best, true, HillClimb, 2}:   0xed2a0facd5353927,
	{Best, true, HillClimb, 3}:   0xdd3e3d9a52dd7c3a,
	{Worst, false, Anneal, 1}:    0x91d90ab3431bc62e,
	{Worst, false, Anneal, 2}:    0x4f8c9dc3ceabc3b4,
	{Worst, false, Anneal, 3}:    0x966ae59d25bb2362,
	{Worst, false, HillClimb, 1}: 0xa4e6310a3ddb1de2,
	{Worst, false, HillClimb, 2}: 0x3a4fc0a5a8f49e9d,
	{Worst, false, HillClimb, 3}: 0xe678e103ffdf985c,
}

func TestSerialExchangeGoldens(t *testing.T) {
	req := testRequest()
	for key, want := range goldenSerial {
		for _, workers := range []int{0, 1} {
			var qos *QoS
			if key.qos {
				qos = &QoS{App: "sens", MaxNormalized: 1.7}
			}
			cfg := Config{Iterations: 150, Seed: key.seed, Goal: key.goal, Method: key.meth, QoS: qos, Restarts: 2, Cells: 3, ExchangeIters: 200, ExchangeWorkers: workers}
			res, err := Search(req, cfg)
			if err != nil {
				t.Fatalf("%+v workers=%d: %v", key, workers, err)
			}
			if got := digestResult(res); got != want {
				t.Errorf("%+v workers=%d: digest 0x%016x, want golden 0x%016x", key, workers, got, want)
			}
		}
	}
}

// Golden digests (captured at the commit before the index-native engine)
// of the hierarchical search with three restarts per cell and a QoS app
// whose demand is split across two cells — "sens" comes last in request
// order, so the spread leaves 2 of its units in cell 0 and 2 in cell 1,
// and both cells anneal under the constraint on their own sub-index.
type splitGoldenKey struct {
	meth    Method
	workers int
	seed    int64
}

var goldenSplitQoS = map[splitGoldenKey]uint64{
	{Anneal, 0, 1}:    0x4532b75ceccb0c23,
	{Anneal, 0, 2}:    0x74fac6f21364f0fc,
	{Anneal, 0, 3}:    0xabcb058faa78d003,
	{Anneal, 2, 1}:    0x5ec72a8cb6a3dbb5,
	{Anneal, 2, 2}:    0x5e852fc9b97b72b7,
	{Anneal, 2, 3}:    0x63ffcd9263cc1123,
	{HillClimb, 0, 1}: 0xcd166087d19b1987,
	{HillClimb, 0, 2}: 0xad22f2a40717946d,
	{HillClimb, 0, 3}: 0x999365d66cab5edf,
	{HillClimb, 2, 1}: 0x5f5a448766f1fc06,
	{HillClimb, 2, 2}: 0xaed0572b435dede9,
	{HillClimb, 2, 3}: 0x8f8a753f2d4fbf80,
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
			Restarts: 3, Cells: 3, ExchangeIters: 200, ExchangeWorkers: key.workers}
		res, err := Search(req, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", key, err)
		}
		if got := digestResult(res); got != want {
			t.Errorf("%+v: digest 0x%016x, want golden 0x%016x", key, got, want)
		}
	}
}

// Golden digests of the serial search over generated fleets with down
// hosts — same vintage and purpose as goldenSerial, but exercising the
// spread phase, multi-cell merge, and the down-host skip in the
// exchange draw loop.
type fleetGoldenKey struct {
	fleetSeed int64
	cells     int
	round     int
}

var goldenFleet = map[fleetGoldenKey]uint64{
	{1, 2, 0}: 0x5281f6a52dd6fb7d,
	{1, 2, 2}: 0x1bee551496080e9f,
	{1, 5, 0}: 0xa76ee0af40111592,
	{1, 5, 2}: 0x98e2157f58fa6fc2,
	{2, 2, 0}: 0x0439e6d71ddf0477,
	{2, 2, 2}: 0xbf85436053d2c20e,
	{2, 5, 0}: 0xb4cf38005e369bee,
	{2, 5, 2}: 0x5a59ddcc2d8f0daa,
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

func TestSerialExchangeFleetGoldens(t *testing.T) {
	spec := propFleetSpec()
	for key, want := range goldenFleet {
		f, err := fleet.Generate(spec, key.fleetSeed)
		if err != nil {
			t.Fatal(err)
		}
		down := f.DownAt(key.round)
		req := fleetRequest(t, spec, down, key.fleetSeed*100+int64(key.cells), 12)
		for _, workers := range []int{0, 1} {
			cfg := Config{Iterations: 150, Seed: key.fleetSeed, Restarts: 1, Cells: key.cells, ExchangeIters: 300, ExchangeWorkers: workers}
			res, err := Search(req, cfg)
			if err != nil {
				t.Fatalf("%+v workers=%d: %v", key, workers, err)
			}
			if got := digestResult(res); got != want {
				t.Errorf("%+v workers=%d: digest 0x%016x, want golden 0x%016x", key, workers, got, want)
			}
		}
	}
}

// TestExchangeWorkersDeterministic: the speculative exchange is a pure
// function of (Request, Config.Seed) — same seed twice is byte-identical
// (run under -race this also shakes out data races in the worker
// fan-out), and the digest is identical for every worker count >= 2
// (the two-stream draw discipline makes the trajectory independent of
// how proposals are striped across workers).
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
		var refSet bool
		for _, workers := range []int{2, 4, 8} {
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
			if !refSet {
				ref, refSet = da, true
			} else if da != ref {
				t.Errorf("seed=%d workers=%d: digest 0x%016x differs from workers=2 digest 0x%016x", fleetSeed, workers, da, ref)
			}
		}
	}
}

// TestExchangeSpeculativeImproves: the parallel annealer must still do
// its job — on a fleet-sized request it should accept exchanges and not
// end worse than the spread phase alone (ExchangeIters=0 ... baseline).
func TestExchangeSpeculativeImproves(t *testing.T) {
	spec := propFleetSpec()
	f, err := fleet.Generate(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	req := fleetRequest(t, spec, f.DownAt(0), 300, 16)
	serial, err := Search(req, Config{Iterations: 150, Seed: 9, Restarts: 1, Cells: 5, ExchangeIters: 400})
	if err != nil {
		t.Fatal(err)
	}
	spec4, err := Search(req, Config{Iterations: 150, Seed: 9, Restarts: 1, Cells: 5, ExchangeIters: 400, ExchangeWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Both trajectories search the same space with the same budget; the
	// speculative one must land in the same quality ballpark (within 5%
	// — the streams differ, so exact equality is not expected).
	if spec4.Objective > serial.Objective*1.05 {
		t.Errorf("speculative objective %.4f much worse than serial %.4f", spec4.Objective, serial.Objective)
	}
	if err := spec4.Placement.Validate(); err != nil {
		t.Errorf("speculative placement invalid: %v", err)
	}
}

func TestExchangeWorkersValidation(t *testing.T) {
	req := testRequest()
	if _, err := Search(req, Config{Iterations: 10, Seed: 1, ExchangeWorkers: -1, Cells: 3}); err == nil || !strings.Contains(err.Error(), "exchange workers") {
		t.Errorf("negative ExchangeWorkers: got err %v, want validation error", err)
	}
	if _, err := Search(req, Config{Iterations: 10, Seed: 1, ExchangeWorkers: 2}); err == nil || !strings.Contains(err.Error(), "exchange workers") {
		t.Errorf("ExchangeWorkers>1 with flat search: got err %v, want validation error", err)
	}
	if _, err := Search(req, Config{Iterations: 10, Seed: 1, ExchangeWorkers: 2, Cells: 1}); err == nil || !strings.Contains(err.Error(), "exchange workers") {
		t.Errorf("ExchangeWorkers>1 with Cells=1: got err %v, want validation error", err)
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
