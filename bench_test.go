package repro

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (in quick mode, so `go test -bench=.` stays tractable) and
// additionally benchmarks the hot paths of the library: the single-node
// contention solver, the distributed application engines, model
// construction, prediction, and the annealing placement search.
//
// Mapping to the paper (see DESIGN.md section 4 for the full index):
//
//	BenchmarkFigure2  - motivating example, naive vs. real
//	BenchmarkFigure3  - propagation curves (12 apps)
//	BenchmarkTable2   - heterogeneity policies (Table 2 / Figure 4)
//	BenchmarkTable3   - profiling algorithms (Table 3 / Figures 6-7)
//	BenchmarkTable4   - bubble scores
//	BenchmarkFigure8  - pairwise validation errors
//	BenchmarkFigure9  - M.Gems case study
//	BenchmarkFigure10 - QoS-aware placement
//	BenchmarkFigure11 - throughput placement (Table 5 / Figure 11)
//	BenchmarkFigure12 - EC2 propagation curves
//	BenchmarkTable6   - EC2 heterogeneity policies
//	BenchmarkFigure13 - EC2 validation errors

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/app"
	"repro/internal/bubble"
	"repro/internal/cluster"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/ec2"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// newEnv is a measurement environment over the paper's private testbed.
func newEnv(seed int64) (*measure.Env, error) { return measure.NewEnv(cluster.Default(), seed) }

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
	benchLabErr  error
)

// lab returns a shared quick-mode lab. Model construction is cached inside
// the lab, so each benchmark measures the experiment itself (measurement
// runs, searches, validation co-runs) after a warm first iteration.
func lab(tb testing.TB) *experiments.Lab {
	tb.Helper()
	benchLabOnce.Do(func() {
		benchLab, benchLabErr = experiments.NewLab(experiments.Config{Seed: 2016, Quick: true})
	})
	if benchLabErr != nil {
		tb.Fatal(benchLabErr)
	}
	return benchLab
}

func benchRunner(b *testing.B, id string) {
	l := lab(b)
	r, err := experiments.RunnerByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2(b *testing.B)  { benchRunner(b, "figure2") }
func BenchmarkFigure3(b *testing.B)  { benchRunner(b, "figure3") }
func BenchmarkTable2(b *testing.B)   { benchRunner(b, "table2") }
func BenchmarkTable3(b *testing.B)   { benchRunner(b, "table3") }
func BenchmarkTable4(b *testing.B)   { benchRunner(b, "table4") }
func BenchmarkFigure8(b *testing.B)  { benchRunner(b, "figure8") }
func BenchmarkFigure9(b *testing.B)  { benchRunner(b, "figure9") }
func BenchmarkFigure10(b *testing.B) { benchRunner(b, "figure10") }
func BenchmarkFigure11(b *testing.B) { benchRunner(b, "figure11") }
func BenchmarkFigure12(b *testing.B) { benchRunner(b, "figure12") }
func BenchmarkTable6(b *testing.B)   { benchRunner(b, "table6") }
func BenchmarkFigure13(b *testing.B) { benchRunner(b, "figure13") }

// ---- micro-benchmarks of the library's hot paths ----

// BenchmarkContentionSolve measures the single-node equilibrium solver,
// the innermost operation of every measurement. private is the testbed's
// two-unit host through Solve, a shape the measurement layer memoises;
// ec2-host is the shape that carries almost all of a full reproduction's
// solves and never repeats: a 4-core application unit and a 4-core bubble
// beside an 8-core flat noisy tenant at a continuous pressure, through
// Slowdowns as the measurement layer calls it; zeus-probe is bubble.Score's
// probe beside M.zeus (Table 4), whose equilibrium sits on the kink of the
// probe's miss curve, where the damped iteration gives up and the
// bracketing solve settles it.
func BenchmarkContentionSolve(b *testing.B) {
	node := contention.DefaultNode()
	w, err := workloads.ByName("M.milc")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("private", func(b *testing.B) {
		occ := []contention.Occupant{
			{Name: "app", Prof: w.Prof, Cores: 8},
			{Name: "bubble", Prof: bubble.Profile(6), Cores: 8},
		}
		for i := 0; i < b.N; i++ {
			if _, err := contention.Solve(node, occ); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ec2-host", func(b *testing.B) {
		occ := []contention.Occupant{
			{Name: "app", Prof: w.Prof, Cores: ec2.UnitCores},
			{Name: "bubble", Prof: bubble.Profile(5), Cores: ec2.UnitCores},
			{Name: "tenant", Prof: bubble.Profile(3.3), Cores: 2 * ec2.UnitCores},
		}
		var sd [2]float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := contention.Slowdowns(node, occ, sd[:]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("zeus-probe", func(b *testing.B) {
		zeus, err := workloads.ByName("M.zeus")
		if err != nil {
			b.Fatal(err)
		}
		occ := []contention.Occupant{
			{Name: "probe", Prof: contention.MemProfile{CPICore: 0.8, APKI: 15, WSSMB: 20, MRMin: 0.1, MRMax: 0.9, Gamma: 1.1, MLP: 2}, Cores: 8},
			{Name: "M.zeus", Prof: zeus.Prof, Cores: 8},
		}
		var sd [1]float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := contention.Slowdowns(node, occ, sd[:]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBSPRun measures one run of a BSP application across 8 nodes
// (its closed form).
func BenchmarkBSPRun(b *testing.B) {
	w, err := workloads.ByName("M.milc")
	if err != nil {
		b.Fatal(err)
	}
	sd := []float64{2, 1, 1, 1, 1.5, 1, 1, 1}
	net := netsim.TenGbE()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.App.Run(app.Params{Slowdown: sd, Net: net, RNG: sim.NewRNG(int64(i))}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTaskPoolRun measures the dynamic task-scheduling engine
// (Hadoop-style) with speculation enabled.
func BenchmarkTaskPoolRun(b *testing.B) {
	w, err := workloads.ByName("H.KM")
	if err != nil {
		b.Fatal(err)
	}
	sd := []float64{3, 1, 1, 1, 1, 1, 1, 1}
	net := netsim.TenGbE()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.App.Run(app.Params{Slowdown: sd, Net: net, RNG: sim.NewRNG(int64(i))}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureBatch measures the batch machinery end to end: one
// 24-cell propagation grid (3 pressures x 8 node counts) per iteration on
// an uncached private-cluster environment, so the engine fan-out and the
// closed-form application paths dominate, not memoization.
func BenchmarkMeasureBatch(b *testing.B) {
	env, err := newEnv(7)
	if err != nil {
		b.Fatal(err)
	}
	env.Reps = 2
	w, err := workloads.ByName("M.milc")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt := env.NewBatch()
		var handles []*measure.Value
		for _, p := range []float64{2, 5, 8} {
			for c := 0; c <= 7; c++ {
				ps, err := measure.HomogeneousPressures(8, c, p)
				if err != nil {
					b.Fatal(err)
				}
				handles = append(handles, bt.Normalized(w, ps))
			}
		}
		if err := bt.Run(); err != nil {
			b.Fatal(err)
		}
		for _, h := range handles {
			if _, err := h.Result(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTaskWorkspaceReuse measures a task-engine run in steady state,
// where every iteration recycles a pooled workspace and the event queue it
// owns; allocations per run are the interesting number.
func BenchmarkTaskWorkspaceReuse(b *testing.B) {
	w, err := workloads.ByName("H.KM")
	if err != nil {
		b.Fatal(err)
	}
	sd := []float64{2, 1, 1, 1, 1, 1, 1, 1}
	net := netsim.TenGbE()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.App.Run(app.Params{Slowdown: sd, Net: net, RNG: sim.NewRNG(int64(i))}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelPredict measures a single model prediction (policy
// conversion plus bilinear matrix lookup), the operation the placement
// search performs thousands of times.
func BenchmarkModelPredict(b *testing.B) {
	l := lab(b)
	m, err := l.Model("M.milc")
	if err != nil {
		b.Fatal(err)
	}
	pressures := []float64{6, 4, 2, 0, 0, 1, 0, 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PredictPressures(pressures); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildModel measures full model construction (binary-optimized
// profiling + policy selection + bubble score) for one workload, bare and
// with a telemetry registry attached to the measurement environment as
// interfd attaches it. The ratio of the two is telemetry's own cost
// (docs/OBSERVABILITY.md, "Overhead budget").
func BenchmarkBuildModel(b *testing.B) {
	w := mustWorkload(b, "M.zeus")
	for _, instrumented := range []bool{false, true} {
		name := "bare"
		if instrumented {
			name = "instrumented"
		}
		b.Run(name, func(b *testing.B) {
			env, err := newEnv(1)
			if err != nil {
				b.Fatal(err)
			}
			env.Reps = 2
			if instrumented {
				env.Telemetry = telemetry.NewRegistry()
			}
			cfg := core.DefaultBuildConfig()
			cfg.Samples = 15
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i)
				if _, err := core.BuildModel(env, w, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBinaryOptimized measures Algorithm 2 against a synthetic
// measurer, isolating the profiling logic from simulation cost.
func BenchmarkBinaryOptimized(b *testing.B) {
	meas := func(settings []profile.Setting) ([]float64, error) {
		out := make([]float64, len(settings))
		for i, s := range settings {
			j := float64(s.Interfering)
			out[i] = 1 + 0.2*s.Pressure*j/(1+j)
		}
		return out, nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.BinaryOptimizedBatch(meas, bubble.MaxPressure, 8, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacementSearch measures the annealing search with cheap
// synthetic predictors, isolating the search from model construction.
// benchPlacementRequest is the 8-host, 4-app problem shared by the
// placement-search benchmarks.
func benchPlacementRequest() placement.Request {
	pred := func(per float64) core.Predictor {
		return predictorFunc(func(ps []float64) (float64, error) {
			var s float64
			for _, p := range ps {
				s += p
			}
			return 1 + per*s, nil
		})
	}
	return placement.Request{
		NumHosts: 8, SlotsPerHost: 2,
		Demands: []cluster.Demand{
			{App: "a", Units: 4}, {App: "b", Units: 4},
			{App: "c", Units: 4}, {App: "d", Units: 4},
		},
		Predictors: map[string]core.Predictor{
			"a": pred(0.3), "b": pred(0.01), "c": pred(0.02), "d": pred(0.02),
		},
		Scores: map[string]float64{"a": 0.5, "b": 0.5, "c": 6, "d": 6},
	}
}

func BenchmarkPlacementSearch(b *testing.B) {
	req := benchPlacementRequest()
	cfg := placement.DefaultConfig(1)
	cfg.Iterations = 1000
	cfg.Restarts = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := placement.Search(req, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacementSearchRestarts measures the multi-restart search,
// whose independent trajectories run one goroutine each.
func BenchmarkPlacementSearchRestarts(b *testing.B) {
	req := benchPlacementRequest()
	cfg := placement.DefaultConfig(1)
	cfg.Iterations = 1000
	cfg.Restarts = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := placement.Search(req, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaPredict measures a two-host incremental re-prediction —
// the exact per-proposal work of the search's swap loop — through
// core.DeltaPredictPos over the grid and postings, as the engine runs it.
func BenchmarkDeltaPredict(b *testing.B) {
	req := benchPlacementRequest()
	outs, err := placement.RandomOutcome(req, 1, 3)
	if err != nil {
		b.Fatal(err)
	}
	p := outs[0].Placement
	ix, err := core.NewAppsIndex(p.Apps(), req.Predictors, req.Scores)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := core.NewGrid(p, ix)
	if err != nil {
		b.Fatal(err)
	}
	pst := core.NewPostings(grid, len(ix.Apps))
	cache := core.NewPredictionCache()
	out := make([]float64, len(p.Apps()))
	all := make([]int32, len(p.Apps()))
	for i := range all {
		all[i] = int32(i)
	}
	if err := core.DeltaPredictPos(grid, pst, all, ix, cache, out); err != nil {
		b.Fatal(err)
	}
	var affected []int32
	for _, a := range append(p.HostApps(0), p.HostApps(1)...) {
		id, ok := ix.IndexOf(a)
		if !ok {
			b.Fatalf("app %q not indexed", a)
		}
		affected = append(affected, id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.DeltaPredictPos(grid, pst, affected, ix, cache, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacementSearchFaults measures the search on a degraded
// cluster: two hosts down, demands shrunk to fit the surviving slots.
// Tracks the overhead of the down-host guards in the swap loop.
func BenchmarkPlacementSearchFaults(b *testing.B) {
	req := benchPlacementRequest()
	for i := range req.Demands {
		req.Demands[i].Units = 3 // 12 units on 12 surviving slots
	}
	req.DownHosts = []int{2, 5}
	cfg := placement.DefaultConfig(1)
	cfg.Iterations = 1000
	cfg.Restarts = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := placement.Search(req, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFleetSpec is the 5000-host, 3-class fleet shared by the
// fleet-scale benchmarks.
func benchFleetSpec() fleet.Spec {
	return fleet.Spec{
		Name:         "bench",
		TotalHosts:   5000,
		SlotsPerHost: 2,
		Templates: []fleet.Template{
			{Name: "core", Weight: 70},
			{Name: "burst", Weight: 20, DegradeFactor: 1.2, StartupRounds: 4},
			{Name: "legacy", Weight: 10, Capacity: 0.8, DegradeFactor: 1.5},
		},
	}
}

// BenchmarkFleetGen measures template-driven fleet generation at fleet
// scale: apportionment, class expansion, seeded shuffle, and staged
// startup for 5000 hosts per iteration.
func BenchmarkFleetGen(b *testing.B) {
	spec := benchFleetSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.Generate(spec, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFleetSearchRequest builds the thousand-app problem: 1000 apps x 4
// units on the 5000-host fleet, with cheap synthetic predictors so the
// benchmark isolates the search machinery.
func benchFleetSearchRequest() placement.Request {
	return benchFleetRequestN(benchFleetSpec().TotalHosts, 1000)
}

// benchFleetRequestN is benchFleetSearchRequest at an arbitrary scale:
// n apps x 4 units on hosts two-slot hosts.
func benchFleetRequestN(hosts, n int) placement.Request {
	rng := sim.NewRNG(9).Stream("bench-fleet-apps")
	demands := make([]cluster.Demand, 0, n)
	predictors := make(map[string]core.Predictor, n)
	scores := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		app := "app" + string(rune('a'+i/676%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i%26))
		per := 0.02 + 0.08*rng.Float64()
		demands = append(demands, cluster.Demand{App: app, Units: 4})
		predictors[app] = predictorFunc(func(ps []float64) (float64, error) {
			var s float64
			for _, p := range ps {
				s += p
			}
			return 1 + per*s, nil
		})
		scores[app] = 0.5 + 5.5*rng.Float64()
	}
	return placement.Request{
		NumHosts:     hosts,
		SlotsPerHost: 2,
		Demands:      demands,
		Predictors:   predictors,
		Scores:       scores,
	}
}

// BenchmarkFleetSearch measures one full hierarchical placement search —
// 1000 applications, 4000 units, 5000 hosts sharded into 50 cells, with
// a cross-cell exchange phase — per iteration. This is the fleet-scale
// path a flat search cannot cover in comparable time.
func BenchmarkFleetSearch(b *testing.B) {
	req := benchFleetSearchRequest()
	cfg := placement.Config{Iterations: 200, Restarts: 1, Cells: 50, ExchangeIters: 500, ExchangeWorkers: runtime.GOMAXPROCS(0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := placement.Search(req, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFleetSearchAllocCeiling caps the mallocs of one BenchmarkFleetSearch
// search. The search runs on pooled int32 state and builds one string
// Placement and one prediction map at the very end (~0.7k mallocs); when
// every cell round-tripped through strings it took ~3.2k, so the ceiling
// trips if a per-cell Placement, map or re-binding creeps back in.
func TestFleetSearchAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ceiling = 1500
	req := benchFleetSearchRequest()
	cfg := placement.Config{Iterations: 200, Restarts: 1, Cells: 50, ExchangeIters: 500, ExchangeWorkers: 2}
	allocs := testing.AllocsPerRun(5, func() {
		cfg.Seed++
		if _, err := placement.Search(req, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("fleet search mallocs = %.0f per search, ceiling %d", allocs, ceiling)
	}
	t.Logf("fleet search mallocs = %.0f per search", allocs)
}

// totalAllocOf returns the bytes fn allocates, on any goroutine, with the
// collector off so a cycle cannot empty the pools mid-measurement.
func totalAllocOf(fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAppRunAllocCeiling: a warm application run allocates no generator
// state and no scheduling state, with or without a telemetry registry
// attached, and whether it reads a shared jitter table or fills its own.
// A run's view of its factors — a cursor per node and, without a shared
// table, a private table whose storage the next run refills — lives in a
// pool, the generators that fill tables are pooled and re-targeted in
// place, and the task engines' stage state and completion callbacks live
// in a pooled workspace, so what is left is the run's own small change;
// a run used to allocate a 4.9 KB generator per node, and a
// task-engine run used to allocate a closure per task launch (103 KB per
// H.KM run). An instrumented run adds a handful of counter updates and no
// per-event work: BSP and wavefront keep their closed forms and the task
// engines' event engine flushes its counts once per run. A run over a
// shared table reads what the first run filled and draws nothing.
func TestAppRunAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ceiling = 512 // bytes per run
	sd := []float64{2, 1, 1, 1, 1.5, 1, 1, 1}
	net := netsim.TenGbE()
	// BSP, wavefront, independent, task pool (speculative), stages.
	for _, name := range []string{"M.milc", "M.Gems", "C.libq", "H.KM", "S.CF"} {
		w := mustWorkload(t, name)
		if w.App.NoiseSigma <= 0 {
			t.Fatalf("%s draws no jitter; the test would prove nothing", name)
		}
		for _, mode := range []struct {
			name   string
			reg    *telemetry.Registry
			shared bool
		}{
			{"bare", nil, false},
			{"instrumented", telemetry.NewRegistry(), false},
			{"shared-table", nil, true},
		} {
			const runs = 200
			seed := int64(0)
			var table *app.Factors
			rng := sim.NewRNG(seed)
			if mode.shared {
				table = new(app.Factors)
			}
			run := func() {
				for i := 0; i < runs; i++ {
					if !mode.shared { // a new run stream every run
						seed++
						rng = sim.NewRNG(seed)
					}
					if _, err := w.App.Run(app.Params{Slowdown: sd, Net: net, RNG: rng, Factors: table, Telemetry: mode.reg}); err != nil {
						t.Fatal(err)
					}
				}
			}
			run() // warm the pools, the registry's handles and the shared table
			perRun := totalAllocOf(run) / runs
			if perRun > ceiling {
				t.Errorf("%s (%v, %s): %d B per warm run, ceiling %d", name, w.App.Engine, mode.name, perRun, ceiling)
			}
			t.Logf("%s (%v, %s): %d B per warm run", name, w.App.Engine, mode.name, perRun)
		}
	}
}

// TestPlaceAllocCeiling: a warm placement request through the service, with
// the registry, tracer, SLO tracker and a decision sink attached as interfd
// attaches them, allocates what its search and its response need and
// nothing for the serving machinery beyond one pending record and five
// spans: no batch slice, no per-request backend maps, no quantile refresh,
// no shared-cache growth, nothing to hand the decision on. Measured 3.1 KB
// per request, with or without the sink; the batch dispatcher with the
// cross-request prediction cache spent 4.8 KB on the same requests.
func TestPlaceAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ceiling = 4608 // bytes per request, 1.5 x the measured figure
	reg := telemetry.NewRegistry()
	slo, err := obs.NewSLOTracker(obs.DefaultSLOConfig(), reg, obs.NewBus(obs.DefaultBusBuffer))
	if err != nil {
		t.Fatal(err)
	}
	// The sink does what interfd's does with a decision outside its
	// verification sample: look at the identity and return.
	var handedOn atomic.Int64
	s := benchService(t, serve.Config{
		Iterations: 600, Workers: 1,
		Telemetry: reg, Tracer: telemetry.NewTracer(telemetry.DefaultSpanCapacity), SLO: slo,
		OnDecision: func(d serve.Decision) {
			if d.ID != "" && d.Result.Placement != nil {
				handedOn.Add(1)
			}
		},
	})
	req := serve.PlaceRequest{Apps: []serve.AppDemand{
		{App: "a", Units: 4}, {App: "b", Units: 4}, {App: "c", Units: 4}, {App: "d", Units: 4},
	}}
	const requests = 500
	run := func() {
		for i := 0; i < requests; i++ {
			req.Seed++
			if _, status, err := s.Place(req); err != nil || status != 200 {
				t.Fatalf("status %d: %v", status, err)
			}
		}
	}
	run() // warm the pooled search workspaces and, at five spans a
	run() // request, fill the tracer's ring (4096 records)
	perRequest := totalAllocOf(run) / requests
	if perRequest > ceiling {
		t.Errorf("%d B per warm placement request, ceiling %d", perRequest, ceiling)
	}
	t.Logf("%d B per warm placement request", perRequest)
	// The sink runs after its caller is released, so the last may be pending.
	if got := handedOn.Load(); got < 3*requests-1 {
		t.Errorf("sink saw %d decisions of %d", got, 3*requests)
	}
}

// TestMeasureBodyAllocCeiling: a warm measurement allocates per job — the
// times, the slowdown vector, one pair of streams every run and repetition
// is re-targeted into — never per host, per repetition or per run. On a
// background-free host the solve is memoized under a value key and the
// occupant list lives on the body's stack; on an EC2 host the noisy
// neighbour comes back by value. Every run reads its jitter from the
// Env's table for its (workload, repetition), which the warm-up filled, so
// no run draws or derives a per-node stream. A placement builds its
// occupants once, not once per repetition. Measured before this contract:
// 184 B per private bubble measurement, 2 142 B per EC2 one (a one-tenant
// slice per host and repetition) and 16.5 KB per placement (maps, slices
// and names per host and repetition); 104 B, 152 B and 1.4 KB now.
func TestMeasureBodyAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w := mustWorkload(t, "M.milc")
	pressures := []float64{6, 6, 3, 3, 0, 0, 0, 0}
	private, err := newEnv(5)
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := ec2.NewEnv(5)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := cluster.NewPlacement(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	apps := []string{"M.milc", "C.libq", "H.KM", "M.lmps"}
	for i := 0; i < 16; i++ {
		if err := packed.Set(i/2, i%2, apps[i%len(apps)]); err != nil {
			t.Fatal(err)
		}
	}
	reg := workloads.Registry()
	// Keep the pooled per-run jitter views the warm-up fills where the
	// measured runs find them: a collection in between would empty the
	// pool, and on several Ps the goroutine can move away from the P whose
	// private pool slot holds them. Either way the measured runs would pay
	// for a view's cursors again.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name    string
		ceiling uint64 // bytes per measurement
		measure func() error
	}{
		{"private-bubbles", 256, func() error { _, err := private.RunWithBubbles(w, pressures); return err }},
		{"ec2-bubbles", 256, func() error { _, err := cloud.RunWithBubbles(w, pressures); return err }},
		{"placement", 6144, func() error { _, err := private.RunPlacement(packed, reg); return err }},
	} {
		const runs = 200
		run := func() {
			for i := 0; i < runs; i++ {
				if err := tc.measure(); err != nil {
					t.Fatal(err)
				}
			}
		}
		run() // warm the solve memo, the interned workloads, the jitter tables and the pools
		perRun := totalAllocOf(run) / runs
		if perRun > tc.ceiling {
			t.Errorf("%s: %d B per warm measurement, ceiling %d", tc.name, perRun, tc.ceiling)
		}
		t.Logf("%s: %d B per warm measurement", tc.name, perRun)
	}
}

// TestMeasurePlanAllocCeiling: submitting a measurement to a batch costs a
// fixed few words whatever the request encodes. The content-cache key is a
// 32-byte digest built on the stack, and the job names its workload by the
// environment's interned reference. Keys used to be the plain-text encoding
// (the fingerprint and fmt's rendering of the whole workload, ~1.3 KB), and
// jobs carried two workload definitions by value: 2 532 B per cached
// normalized submission before this contract, 490 B now.
func TestMeasurePlanAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ceiling = 768 // bytes per submission, planned and resolved
	env, err := newEnv(9)
	if err != nil {
		t.Fatal(err)
	}
	env.Cache = measure.NewCache()
	w := mustWorkload(t, "M.milc")
	const submissions = 24
	grid := func() {
		b := env.NewBatch()
		for _, p := range []float64{2, 5, 8} {
			for k := 0; k <= 7; k++ {
				ps, err := measure.HomogeneousPressures(8, k, p)
				if err != nil {
					t.Fatal(err)
				}
				b.Normalized(w, ps)
			}
		}
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
	}
	grid() // measure once; from here on every submission is a cache hit
	perSubmission := totalAllocOf(grid) / submissions
	if perSubmission > ceiling {
		t.Errorf("%d B per cached submission, ceiling %d", perSubmission, ceiling)
	}
	t.Logf("%d B per cached submission", perSubmission)
	if env.Cache.Misses() != submissions+1 { // 24 measurements and their one baseline
		t.Errorf("%d cache misses, want %d: the warm grid was not served from the cache", env.Cache.Misses(), submissions+1)
	}
}

// TestReproAllocCeiling bounds what one cold quick-mode reproduction of
// every paper artifact allocates at about 1.5x the measured 3.7 MB (10.3 MB
// when cache keys were plain text and EC2 backgrounds a slice per host,
// 70 MB when every task launch allocated a closure and every host solve a
// key string, 250 MB when every derived stream allocated its source), so
// that a per-stream, per-event, per-host or per-key-byte allocation cannot
// creep back into the measurement path unnoticed.
func TestReproAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ceilingMB = 6
	got := totalAllocOf(func() {
		l, err := experiments.NewLab(experiments.Config{Seed: 2016, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range experiments.Runners() {
			if _, err := r.Run(l); err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
		}
	})
	mb := float64(got) / 1e6
	if mb > ceilingMB {
		t.Errorf("quick reproduction allocated %.1f MB, ceiling %d MB", mb, ceilingMB)
	}
	t.Logf("quick reproduction allocated %.1f MB", mb)
}

// BenchmarkFleetSearchXL doubles every axis of BenchmarkFleetSearch —
// 2000 applications, 8000 units, 10000 hosts in 100 cells — to catch
// super-linear regressions the base benchmark's scale would hide.
func BenchmarkFleetSearchXL(b *testing.B) {
	req := benchFleetRequestN(10000, 2000)
	cfg := placement.Config{Iterations: 200, Restarts: 1, Cells: 100, ExchangeIters: 500, ExchangeWorkers: runtime.GOMAXPROCS(0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := placement.Search(req, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// resilientPredictor is M.milc's graceful-degradation path: a partial
// (cell-lossy) primary model with a naive fallback behind it.
func resilientPredictor(tb testing.TB) *core.Resilient {
	tb.Helper()
	l := lab(tb)
	m, err := l.Model("M.milc")
	if err != nil {
		tb.Fatal(err)
	}
	naive, err := core.BuildNaiveModel(l.Env, mustWorkload(tb, "M.milc"), 8)
	if err != nil {
		tb.Fatal(err)
	}
	inj, err := fault.New(fault.Plan{
		Seed:   1,
		Faults: []fault.Fault{{Kind: fault.ProfileCellLoss, Fraction: 0.2}},
	}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	inj.Activate(0)
	lossy := *m
	lossy.Matrix = inj.ApplyCellLoss(m.Matrix, "M.milc")
	return core.NewResilient("M.milc", core.Partial{M: &lossy}, naive, nil)
}

// BenchmarkResilientPredict measures a tagged prediction through the
// graceful-degradation path.
func BenchmarkResilientPredict(b *testing.B) {
	res := resilientPredictor(b)
	pressures := []float64{6, 4, 2, 0, 0, 1, 0, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := res.PredictTagged(pressures); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPredictZeroAllocs: a warm model prediction (policy conversion plus
// bilinear matrix lookup) and warm tagged predictions through the
// resilient wrapper — one the lossy matrix answers, one that needs a lost
// cell and falls back — do not touch the heap: the search makes thousands
// of them per placement.
func TestPredictZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m, err := lab(t).Model("M.milc")
	if err != nil {
		t.Fatal(err)
	}
	pressures := []float64{6, 4, 2, 0, 0, 1, 0, 0}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.PredictPressures(pressures); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Model.PredictPressures allocates %v/run, want 0", allocs)
	}
	// One query of each source: uniform and half-loaded vectors at every
	// pressure, in order, until both sources have been seen.
	res := resilientPredictor(t)
	var bySource [2][]float64
	for p := 1.0; p <= 8 && (bySource[0] == nil || bySource[1] == nil); p++ {
		for _, ps := range [][]float64{{p, p, p, p, p, p, p, p}, {p, p, p, p, 0, 0, 0, 0}} {
			_, src, err := res.PredictTagged(ps)
			if err != nil {
				t.Fatal(err)
			}
			k := 0
			if src == core.SourceFallback {
				k = 1
			}
			if bySource[k] == nil {
				bySource[k] = ps
			}
		}
	}
	for k, ps := range bySource {
		want := []string{"primary", "fallback"}[k]
		if ps == nil {
			t.Fatalf("no query was served by the %s predictor", want)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			_, src, err := res.PredictTagged(ps)
			if err != nil || src.String() != want {
				t.Fatalf("PredictTagged(%v) = %v, %v; want a %s prediction", ps, src, err, want)
			}
		}); allocs != 0 {
			t.Errorf("warm Resilient.PredictTagged(%v), %s, allocates %v/run, want 0", ps, want, allocs)
		}
	}
}

func mustWorkload(tb testing.TB, name string) workloads.Workload {
	tb.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// BenchmarkDriftTrackerObserve measures one drift-tracker ingestion — the
// per-round, per-app hot path of the interfd observation plane — through a
// live telemetry registry, exactly as the daemon runs it. The gated number
// is allocs/op: Observe is required to stay alloc-free.
func BenchmarkDriftTrackerObserve(b *testing.B) {
	reg := telemetry.NewRegistry()
	tr, err := drift.New(drift.DefaultConfig(), reg)
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.Register("M.milc", 8, 8, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Observe("M.milc", 3.5, 4.5, 1.2, 1.3, i); err != nil {
			b.Fatal(err)
		}
	}
}

// predictorFunc adapts a closure to core.Predictor.
type predictorFunc func([]float64) (float64, error)

func (f predictorFunc) PredictPressures(ps []float64) (float64, error) { return f(ps) }

// BenchmarkRunPlacement measures a full simulator evaluation of one
// placement (the expensive truth the model search avoids).
func BenchmarkRunPlacement(b *testing.B) {
	env, err := newEnv(1)
	if err != nil {
		b.Fatal(err)
	}
	env.Reps = 1
	reg := map[string]workloads.Workload{}
	for _, n := range []string{"M.milc", "C.libq", "H.KM", "M.lmps"} {
		w, err := workloads.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		reg[n] = w
	}
	p, err := cluster.PackedPlacement(8, 2, []cluster.Demand{
		{App: "M.milc", Units: 4}, {App: "C.libq", Units: 4},
		{App: "H.KM", Units: 4}, {App: "M.lmps", Units: 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.RunPlacement(p, reg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchService builds a ready placement service over the synthetic
// 8-host problem, shared setup for the serving-plane benchmarks.
func benchService(b testing.TB, cfg serve.Config) *serve.Service {
	b.Helper()
	cfg.NumHosts, cfg.SlotsPerHost, cfg.Seed = 8, 2, 1
	cfg.Restarts, cfg.QueueDepth = 1, 256
	s, err := serve.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	req := benchPlacementRequest()
	s.SetBackend(serve.Backend{Predictors: req.Predictors, Scores: req.Scores})
	return s
}

// BenchmarkPlaceRequest measures one placement request end to end
// through the service — admission, the hand-off to a pool worker, the
// search, response assembly —
// with the same synthetic predictors as BenchmarkPlacementSearch, so the
// delta between the two is the serving overhead plus tracing.
func BenchmarkPlaceRequest(b *testing.B) {
	s := benchService(b, serve.Config{Iterations: 600})
	req := serve.PlaceRequest{Apps: []serve.AppDemand{
		{App: "a", Units: 4}, {App: "b", Units: 4},
		{App: "c", Units: 4}, {App: "d", Units: 4},
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed = int64(i + 1)
		if _, status, err := s.Place(req); err != nil || status != 200 {
			b.Fatalf("status %d: %v", status, err)
		}
	}
}

// BenchmarkAdmissionQueue isolates the admission machinery — validation,
// enqueue, the hand-off to a pool worker and back, span bookkeeping — by
// making the search itself nearly free (one iteration) and hammering the
// queue from parallel clients.
func BenchmarkAdmissionQueue(b *testing.B) {
	s := benchService(b, serve.Config{Iterations: 1})
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := serve.PlaceRequest{Apps: []serve.AppDemand{{App: "a", Units: 4}}}
		i := 0
		for pb.Next() {
			i++
			req.Seed = int64(i)
			if _, status, err := s.Place(req); err != nil || status != 200 {
				b.Fatalf("status %d: %v", status, err)
			}
		}
	})
}
