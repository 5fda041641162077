package placement

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// TestFlatEquivalence pins the hierarchical dispatch contract: Cells=0
// and Cells=1 must be bit-identical to the flat Search across the full
// grid of goals, QoS settings, methods, and seeds — the hierarchical
// code must not engage (or disturb a single RNG draw) below Cells=2.
func TestFlatEquivalence(t *testing.T) {
	req := testRequest()
	qosCases := []*QoS{nil, {App: "sens", MaxNormalized: 1.7}}
	for _, goal := range []Goal{Best, Worst} {
		for _, qos := range qosCases {
			if goal == Worst && qos != nil {
				continue // rejected combination
			}
			for _, method := range []Method{Anneal, HillClimb} {
				for seed := int64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("goal=%d/qos=%v/method=%s/seed=%d", goal, qos != nil, method, seed)
					t.Run(name, func(t *testing.T) {
						base := Config{Iterations: 300, Seed: seed, Goal: goal, Method: method, QoS: qos, Restarts: 2}
						flat, err := Search(req, base)
						if err != nil {
							t.Fatal(err)
						}
						for _, cellsCfg := range []int{0, 1} {
							cfg := base
							cfg.Cells = cellsCfg
							got, err := Search(req, cfg)
							if err != nil {
								t.Fatalf("Cells=%d: %v", cellsCfg, err)
							}
							if math.Float64bits(got.Objective) != math.Float64bits(flat.Objective) {
								t.Errorf("Cells=%d objective %v differs from flat %v", cellsCfg, got.Objective, flat.Objective)
							}
							if got.Placement.String() != flat.Placement.String() {
								t.Errorf("Cells=%d placement differs from flat", cellsCfg)
							}
							if got.Evaluations != flat.Evaluations {
								t.Errorf("Cells=%d evaluations %d differ from flat %d", cellsCfg, got.Evaluations, flat.Evaluations)
							}
							if got.QoSSatisfied != flat.QoSSatisfied {
								t.Errorf("Cells=%d QoS verdict differs from flat", cellsCfg)
							}
							if len(got.Predicted) != len(flat.Predicted) {
								t.Fatalf("Cells=%d predicted set differs from flat", cellsCfg)
							}
							for a, v := range flat.Predicted {
								if math.Float64bits(got.Predicted[a]) != math.Float64bits(v) {
									t.Errorf("Cells=%d prediction for %q %v differs from flat %v", cellsCfg, a, got.Predicted[a], v)
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestHierConfigValidation: the up-front rejection of nonsensical cell
// configurations.
func TestHierConfigValidation(t *testing.T) {
	req := testRequest()
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative cells", func(c *Config) { c.Cells = -1 }},
		{"cells exceed hosts", func(c *Config) { c.Cells = req.NumHosts + 1 }},
		{"negative exchange iterations", func(c *Config) { c.ExchangeIters = -5 }},
		{"exchange without cells", func(c *Config) { c.ExchangeIters = 100 }},
		{"exchange with one cell", func(c *Config) { c.Cells = 1; c.ExchangeIters = 100 }},
	}
	for _, tc := range cases {
		cfg := Config{Iterations: 50, Seed: 1, Restarts: 1}
		tc.mut(&cfg)
		if _, err := Search(req, cfg); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
	ok := Config{Iterations: 50, Seed: 1, Restarts: 1, Cells: 4, ExchangeIters: 50}
	if _, err := Search(req, ok); err != nil {
		t.Errorf("valid hierarchical config rejected: %v", err)
	}
}

// TestHierFleetProperty: the cross-cell exchange never emits a placement
// that fails cluster validation, places units on down hosts, or loses
// demand units — across random fleets, seeds, cell counts, and
// staged-startup rounds.
func TestHierFleetProperty(t *testing.T) {
	spec := fleet.Spec{
		Name:         "prop",
		TotalHosts:   60,
		SlotsPerHost: 2,
		Templates: []fleet.Template{
			{Name: "core", Weight: 3},
			{Name: "burst", Weight: 1, DegradeFactor: 1.3, StartupRounds: 4},
		},
	}
	for fleetSeed := int64(1); fleetSeed <= 3; fleetSeed++ {
		f, err := fleet.Generate(spec, fleetSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, cells := range []int{2, 5, 8} {
			for round := 0; round <= 2; round += 2 {
				name := fmt.Sprintf("fleet=%d/cells=%d/round=%d", fleetSeed, cells, round)
				t.Run(name, func(t *testing.T) {
					down := f.DownAt(round)
					req := fleetRequest(t, spec, down, fleetSeed*100+int64(cells), 12)
					cfg := Config{
						Iterations: 150, Seed: fleetSeed, Restarts: 1,
						Cells: cells, ExchangeIters: 300,
					}
					res, err := Search(req, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := res.Placement.Validate(); err != nil {
						t.Fatalf("hierarchical search emitted invalid placement: %v", err)
					}
					downSet := map[int]bool{}
					for _, h := range down {
						downSet[h] = true
					}
					for h := 0; h < req.NumHosts; h++ {
						if !downSet[h] {
							continue
						}
						for s := 0; s < req.SlotsPerHost; s++ {
							if a := res.Placement.At(h, s); a != "" {
								t.Fatalf("unit of %q placed on down host %d", a, h)
							}
						}
					}
					for _, d := range req.Demands {
						if got := res.Placement.UnitsOf(d.App); got != d.Units {
							t.Fatalf("app %q has %d units placed, demanded %d", d.App, got, d.Units)
						}
					}
					if len(res.Predicted) != len(req.Demands) {
						t.Fatalf("predictions cover %d apps, want %d", len(res.Predicted), len(req.Demands))
					}
				})
			}
		}
	}
}

// fleetRequest builds a deterministic synthetic request over a fleet
// spec: numApps apps, each with a linear interference predictor and a
// seed-derived sensitivity/score/unit count, sized to roughly half the
// surviving slot capacity so the search has room to move.
func fleetRequest(t *testing.T, spec fleet.Spec, down []int, seed int64, numApps int) Request {
	t.Helper()
	r := sim.NewRNG(seed).Stream("hier-fleet-apps")
	surviving := (spec.TotalHosts - len(down)) * spec.SlotsPerHost
	budget := surviving / 2
	demands := make([]cluster.Demand, 0, numApps)
	predictors := make(map[string]core.Predictor, numApps)
	scores := make(map[string]float64, numApps)
	total := 0
	for i := 0; i < numApps && total < budget; i++ {
		app := fmt.Sprintf("app%02d", i)
		units := 1 + r.Intn(4)
		if total+units > budget {
			units = budget - total
		}
		total += units
		demands = append(demands, cluster.Demand{App: app, Units: units})
		predictors[app] = fakePred{per: 0.02 + 0.05*r.Float64()}
		scores[app] = 0.5 + 5*r.Float64()
	}
	return Request{
		NumHosts:     spec.TotalHosts,
		SlotsPerHost: spec.SlotsPerHost,
		Demands:      demands,
		Predictors:   predictors,
		Scores:       scores,
		DownHosts:    down,
	}
}

// TestHierDeterminism: the hierarchical search is a pure function of
// (Request, Config) — same seed twice gives byte-identical results, a
// different seed moves the trajectory.
func TestHierDeterminism(t *testing.T) {
	req := testRequest()
	cfg := Config{Iterations: 200, Seed: 7, Restarts: 2, Cells: 4, ExchangeIters: 250}
	a, err := Search(req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Placement.String() != b.Placement.String() {
		t.Error("same seed produced different hierarchical placements")
	}
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		t.Errorf("same seed produced different objectives: %v vs %v", a.Objective, b.Objective)
	}
	if a.Evaluations != b.Evaluations {
		t.Errorf("same seed produced different evaluation counts: %d vs %d", a.Evaluations, b.Evaluations)
	}
	cfg.Seed = 8
	c, err := Search(req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Placement.String() == c.Placement.String() && a.Objective == c.Objective {
		t.Error("different seeds produced identical hierarchical results")
	}
}

// TestHierQoS: a QoS constraint flows through the hierarchical path —
// the constrained app's cell enforces it locally and the exchange phase
// re-checks it globally.
func TestHierQoS(t *testing.T) {
	req := testRequest()
	cfg := Config{
		Iterations: 500, Seed: 3, Restarts: 2,
		Cells: 2, ExchangeIters: 4000,
		QoS: &QoS{App: "sens", MaxNormalized: 1.7},
	}
	res, err := Search(req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.QoSSatisfied {
		t.Fatalf("hierarchical search failed the satisfiable QoS bound: sens=%v", res.Predicted["sens"])
	}
	if res.Predicted["sens"] > 1.7 {
		t.Errorf("QoS reported satisfied but sens=%v exceeds 1.7", res.Predicted["sens"])
	}
}

// TestHierExchangeImproves: under HillClimb the exchange acceptance rule
// is temperature-free, so a longer exchange budget replays the shorter
// run's trajectory exactly and then keeps going — the best objective can
// only improve (Goal Best). This pins both the shared-prefix determinism
// of the exchange RNG stream and the monotone best-tracking.
func TestHierExchangeImproves(t *testing.T) {
	req := testRequest()
	base := Config{Iterations: 200, Seed: 5, Restarts: 1, Cells: 4, Method: HillClimb, ExchangeIters: 50}
	prev := math.Inf(1)
	for _, iters := range []int{50, 500, 5000} {
		cfg := base
		cfg.ExchangeIters = iters
		res, err := Search(req, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Placement.Validate(); err != nil {
			t.Fatal(err)
		}
		if res.Objective > prev {
			t.Errorf("exchange budget %d worsened the objective: %v > %v", iters, res.Objective, prev)
		}
		prev = res.Objective
	}
}

// searchCellsConfig is a hierarchical Config with every default Search
// would fill in set explicitly, for tests that drive the phases directly.
func searchCellsConfig(seed int64, cells int, qos *QoS) Config {
	return Config{Iterations: 150, InitTemp: 0.5, CoolRate: math.Pow(1e-3, 1.0/150), Seed: seed,
		Restarts: 2, Cells: cells, ExchangeIters: 600, ExchangeWorkers: 3, QoS: qos}
}

// boundFleetRequest binds a generated-fleet request (with its QoS, if
// any) the way Search does.
func boundFleetRequest(t *testing.T, fleetSeed int64, round int, qos bool) (*bound, *QoS) {
	t.Helper()
	spec := propFleetSpec()
	f, err := fleet.Generate(spec, fleetSeed)
	if err != nil {
		t.Fatal(err)
	}
	req := fleetRequest(t, spec, f.DownAt(round), fleetSeed*100+int64(round), 24)
	b, err := bind(req)
	if err != nil {
		t.Fatal(err)
	}
	var q *QoS
	if qos {
		// The last app in request order is the one the spread splits.
		q = &QoS{App: req.Demands[len(req.Demands)-1].App, MaxNormalized: 1.02}
		if err := b.constrain(q); err != nil {
			t.Fatal(err)
		}
	}
	return b, q
}

// TestExchangeStartsFromCellPredictions pins the hand-off between the
// phases: the exchange starts from the predictions the cells left behind,
// re-predicting only the apps split across cells, and the state it starts
// from must equal a from-scratch DeltaPredictPos of the fleet grid, bit
// for bit — across seeds, cell counts, down hosts and QoS.
func TestExchangeStartsFromCellPredictions(t *testing.T) {
	var split, whole int
	for seed := int64(1); seed <= 3; seed++ {
		for _, cells := range []int{2, 5, 50} {
			for _, round := range []int{0, 2} {
				for _, qos := range []bool{false, true} {
					tag := fmt.Sprintf("seed=%d cells=%d round=%d qos=%v", seed, cells, round, qos)
					b, q := boundFleetRequest(t, seed, round, qos)
					cfg := searchCellsConfig(seed, cells, q)
					ws := acquireWorkspace()
					if _, _, err := searchCells(ws, b, &cfg, 1); err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					e := &ws.e
					if err := e.start(&b.problem, ws.stale); err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					n := len(b.ix.Apps)
					all := make([]int32, n)
					for i := range all {
						all[i] = int32(i)
					}
					want := make([]float64, n)
					if err := core.DeltaPredictPos(&e.grid, core.NewPostings(&e.grid, n), all, b.ix, core.NewPredictionCache(), want); err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					for i, v := range want {
						if math.Float64bits(e.pred[i]) != math.Float64bits(v) {
							t.Fatalf("%s: app %s starts at %v, from-scratch prediction %v", tag, b.ix.Apps[i], e.pred[i], v)
						}
					}
					split += len(ws.stale)
					whole += n - len(ws.stale)
					releaseWorkspace(ws)
				}
			}
		}
	}
	if split == 0 || whole == 0 {
		t.Fatalf("%d split and %d whole apps across the grid: both hand-off paths must be exercised", split, whole)
	}
}

// TestAssignDemandsMatchesLinearScan: the heap spread makes the pick a
// scan of every cell makes — most free slots, lowest index on ties —
// over random cell sizes, down hosts and demands large enough to split.
func TestAssignDemandsMatchesLinearScan(t *testing.T) {
	// linear is the spread as a scan of every cell per pick.
	linear := func(b *bound, cells [][]int) ([][]appUnits, []int32) {
		free := make([]int, len(cells))
		for c, hs := range cells {
			for _, h := range hs {
				if b.down == nil || !b.down[h] {
					free[c] += b.slots
				}
			}
		}
		out := make([][]appUnits, len(cells))
		var split []int32
		for _, d := range b.demand {
			for units := d.units; units > 0; {
				best := -1
				for c := range free {
					if free[c] > 0 && (best < 0 || free[c] > free[best]) {
						best = c
					}
				}
				take := min(units, free[best])
				if take < d.units && units == d.units {
					split = append(split, d.id)
				}
				out[best] = append(out[best], appUnits{id: d.id, units: take})
				free[best] -= take
				units -= take
			}
		}
		return out, split
	}
	r := sim.NewRNG(31).Stream("assign")
	splits := 0
	for trial := 0; trial < 300; trial++ {
		hosts, slots := 2+r.Intn(60), 1+r.Intn(3)
		b := &bound{problem: problem{hosts: hosts, slots: slots}}
		var cells [][]int
		for h := 0; h < hosts; {
			n := min(1+r.Intn(8), hosts-h)
			cell := make([]int, n)
			for i := range cell {
				cell[i] = h + i
			}
			cells = append(cells, cell)
			h += n
		}
		capacity := hosts * slots
		if r.Bool(0.5) {
			b.down = make([]bool, hosts)
			for h := range b.down {
				if r.Bool(0.2) {
					b.down[h] = true
					capacity -= slots
				}
			}
		}
		for id := int32(0); capacity > 0 && r.Bool(0.95); id++ {
			units := min(1+r.Intn(3*slots+4), capacity)
			b.demand = append(b.demand, appUnits{id: id, units: units})
			capacity -= units
		}
		if len(b.demand) == 0 {
			continue
		}
		got, gotSplit, err := assignDemands(b, cells, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, wantSplit := linear(b, cells)
		for c := range cells {
			if !slices.Equal(got[c], want[c]) {
				t.Fatalf("trial %d cell %d: heap spread %v, linear scan %v", trial, c, got[c], want[c])
			}
		}
		if !slices.Equal(gotSplit, wantSplit) {
			t.Fatalf("trial %d: split apps %v, linear scan %v", trial, gotSplit, wantSplit)
		}
		splits += len(gotSplit)
	}
	if splits == 0 {
		t.Fatal("no trial split a demand")
	}
}

// TestSearchLeavesNoGoroutines: the cell, restart and evaluator fan-outs
// all join before Search returns.
func TestSearchLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	spec := propFleetSpec()
	f, err := fleet.Generate(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	req := fleetRequest(t, spec, f.DownAt(2), 202, 24)
	qos := &QoS{App: req.Demands[len(req.Demands)-1].App, MaxNormalized: 1.02}
	for _, cfg := range []Config{
		{Iterations: 100, Seed: 1, Restarts: 3},
		{Iterations: 100, Seed: 1, Restarts: 3, Cells: 5, ExchangeIters: 300, ExchangeWorkers: 4, QoS: qos},
	} {
		if _, err := Search(req, cfg); err != nil {
			t.Fatal(err)
		}
	}
	// A worker that has signalled the join may not have exited yet.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Search, %d before:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
