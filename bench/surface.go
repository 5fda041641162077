package main

// surface.go is the harness's whole dependency on the program: every
// import of repro/internal/... lives here, behind small adapters, so a
// refactor of the program knows from this one file what the benchmark of
// record calls. It deliberately touches only the survivors ROADMAP item 2
// keeps: core.DeltaPredictPos (not DeltaPredict / DeltaPredictIdx) and
// core.PredictionCache (not SharedPredictionCache).

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/app"
	"repro/internal/bubble"
	"repro/internal/cluster"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/hetero"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// ---- workloads and models -------------------------------------------------

// workloadNames lists the 18 Table-1 workloads in paper order.
func workloadNames() []string {
	var out []string
	for _, w := range workloads.All() {
		out = append(out, w.Name)
	}
	return out
}

// modelSet is one seed's interference models of the 18 workloads, built
// the way interfd builds them at start-up.
type modelSet struct {
	env      *measure.Env
	names    []string
	models   map[string]*core.Model
	scores   map[string]float64
	buildMs  []float64 // wall time of each core.BuildModel, in names order
	costPct  []float64 // profiling cost of each build (Table 3's quantity)
	measured uint64    // settings measured over all builds
}

func buildModels(seed int64) (*modelSet, error) {
	env, err := measure.NewEnv(cluster.Default(), seed)
	if err != nil {
		return nil, err
	}
	env.Cache = measure.NewCache()
	reg := telemetry.NewRegistry()
	cfg := core.DefaultBuildConfig()
	cfg.Seed = seed
	cfg.Telemetry = reg // BuildModel's own counters only; the env stays uninstrumented
	ms := &modelSet{
		env:    env,
		names:  workloadNames(),
		models: map[string]*core.Model{},
		scores: map[string]float64{},
	}
	for _, w := range workloads.All() {
		t0 := time.Now()
		m, err := core.BuildModel(env, w, cfg)
		if err != nil {
			return nil, fmt.Errorf("build model %s: %w", w.Name, err)
		}
		ms.buildMs = append(ms.buildMs, float64(time.Since(t0).Nanoseconds())/1e6)
		ms.costPct = append(ms.costPct, m.ProfilingCostPct)
		ms.models[w.Name] = m
		ms.scores[w.Name] = m.BubbleScore
	}
	ms.measured = reg.Counter(telemetry.Label(core.MetricProfileMeasurements, "alg", cfg.Algorithm.String())).Value()
	return ms, nil
}

func (ms *modelSet) predictors() map[string]core.Predictor {
	out := make(map[string]core.Predictor, len(ms.models))
	for n, m := range ms.models {
		out[n] = m
	}
	return out
}

// predictMeter counts and times the model predictions that missed every
// cache above them: it wraps each predictor handed to a search.
type predictMeter struct {
	calls, ns atomic.Int64
}

type meteredPredictor struct {
	inner core.Predictor
	m     *predictMeter
}

func (p meteredPredictor) PredictPressures(ps []float64) (float64, error) {
	t0 := time.Now()
	v, err := p.inner.PredictPressures(ps)
	p.m.ns.Add(time.Since(t0).Nanoseconds())
	p.m.calls.Add(1)
	return v, err
}

func (m *predictMeter) wrap(preds map[string]core.Predictor) map[string]core.Predictor {
	out := make(map[string]core.Predictor, len(preds))
	for n, p := range preds {
		out[n] = meteredPredictor{inner: p, m: m}
	}
	return out
}

// ---- serving rungs --------------------------------------------------------

// servingRig is interfd's placement plane assembled in-process: the same
// serve.Service configuration behind the same obs handler, plus direct
// access to the rungs below it.
type servingRig struct {
	svc     *serve.Service
	handler http.Handler
	preds   map[string]core.Predictor // raw models
	metered map[string]core.Predictor // the same, behind meter
	scores  map[string]float64
	meter   predictMeter
	reg     *telemetry.Registry // owned by the harness; receives search counters
}

// searchIterations is interfd's -search-iters default, the service's
// per-request search length.
const searchIterations = 600

func newServingRig(ms *modelSet, seed int64) (*servingRig, error) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(telemetry.DefaultSpanCapacity)
	bus := obs.NewBus(obs.DefaultBusBuffer)
	slo, err := obs.NewSLOTracker(obs.DefaultSLOConfig(), reg, bus)
	if err != nil {
		return nil, err
	}
	svc, err := serve.New(serve.Config{
		NumHosts: paperHosts, SlotsPerHost: paperSlots,
		Seed: seed, Iterations: searchIterations, Restarts: 1,
		Telemetry: reg, Tracer: tracer, SLO: slo,
	})
	if err != nil {
		return nil, err
	}
	r := &servingRig{
		svc:    svc,
		preds:  ms.predictors(),
		scores: ms.scores,
		reg:    telemetry.NewRegistry(),
	}
	r.metered = r.meter.wrap(r.preds)
	svc.SetBackend(serve.Backend{Predictors: r.preds, Scores: r.scores})
	srv := obs.New(obs.Options{
		Registry: reg, Tracer: tracer, Bus: bus,
		SLOSnapshot: func() any { return slo.Snapshot() },
		Runtime:     obs.NewRuntimeCollector(reg),
		Routes:      svc.Routes(),
	})
	srv.SetReady(true)
	r.handler = srv.Handler()
	return r, nil
}

func (r *servingRig) close() { r.svc.Close() }

func toResponse(resp serve.Response) placeResponse {
	return placeResponse{
		Endpoint: resp.Endpoint, Placement: resp.Placement, Objective: resp.Objective,
		Predicted: resp.Predicted, QoSSatisfied: resp.QoSSatisfied, Evaluations: resp.Evaluations,
	}
}

// place is a direct serve.Service.Place.
func (r *servingRig) place(req placeRequest) (placeResponse, error) {
	sreq := serve.PlaceRequest{QoSApp: req.QoSApp, QoSMax: req.QoSMax, Seed: req.Seed}
	for _, a := range req.Apps {
		sreq.Apps = append(sreq.Apps, serve.AppDemand{App: a.App, Units: a.Units})
	}
	resp, status, err := r.svc.Place(sreq)
	if err != nil {
		return placeResponse{}, fmt.Errorf("place: status %d: %w", status, err)
	}
	return toResponse(resp), nil
}

// whatIf is a direct serve.Service.WhatIf.
func (r *servingRig) whatIf(req whatIfRequest) (placeResponse, error) {
	resp, status, err := r.svc.WhatIf(serve.WhatIfRequest{
		Placement: req.Placement, QoSApp: req.QoSApp, QoSMax: req.QoSMax,
	})
	if err != nil {
		return placeResponse{}, fmt.Errorf("whatif: status %d: %w", status, err)
	}
	return toResponse(resp), nil
}

// searched is the outcome of a direct placement.Search.
type searched struct {
	objective   float64
	evaluations int
	combineHits uint64
	combineMiss uint64
	placement   *cluster.Placement
	request     placement.Request
	qos         *placement.QoS
}

// search runs placement.Search on the identical problem and seed the
// service would run for req, at the given iteration count. With observe
// set the predictors are metered and the harness's registry receives the
// search's counters.
func (r *servingRig) search(req placeRequest, iterations int, observe bool) (searched, error) {
	preq := placement.Request{
		NumHosts: paperHosts, SlotsPerHost: paperSlots,
		Predictors: r.preds, Scores: r.scores,
	}
	for _, a := range req.Apps {
		preq.Demands = append(preq.Demands, cluster.Demand{App: a.App, Units: a.Units})
	}
	cfg := placement.Config{Iterations: iterations, Restarts: 1, Seed: req.Seed}
	if observe {
		preq.Predictors, cfg.Telemetry = r.metered, r.reg
	}
	var qos *placement.QoS
	if req.QoSApp != "" {
		qos = &placement.QoS{App: req.QoSApp, MaxNormalized: req.QoSMax}
		cfg.QoS = qos
	}
	res, err := placement.Search(preq, cfg)
	if err != nil {
		return searched{}, err
	}
	return searched{
		objective: res.Objective, evaluations: res.Evaluations,
		combineHits: res.CombineHits, combineMiss: res.CombineMisses,
		placement: res.Placement, request: preq, qos: qos,
	}, nil
}

// evaluate is a direct placement.Evaluate of a search's own placement; it
// must reproduce the search's objective.
func (s searched) evaluate() error {
	ev, err := placement.Evaluate(s.placement, s.request, s.qos)
	if err != nil {
		return err
	}
	if ev.Objective != s.objective {
		return fmt.Errorf("evaluate objective %v differs from search %v", ev.Objective, s.objective)
	}
	return nil
}

// predCacheTraffic reads the prediction-memo counters the direct searches
// left in the harness's registry.
func (r *servingRig) predCacheTraffic() (hits, misses uint64) {
	return r.reg.Counter(placement.MetricPredCacheHits).Value(),
		r.reg.Counter(placement.MetricPredCacheMisses).Value()
}

// ---- fleet_search ---------------------------------------------------------

// fleetScale sizes the fleet problem.
type fleetScale struct {
	hosts, apps, cells int
}

var (
	fullFleet  = fleetScale{hosts: 5000, apps: 1000, cells: 50}
	quickFleet = fleetScale{hosts: 1000, apps: 200, cells: 10}
)

func fleetSpec(hosts int) fleet.Spec {
	return fleet.Spec{
		Name: "bench", TotalHosts: hosts, SlotsPerHost: paperSlots,
		Templates: []fleet.Template{
			{Name: "core", Weight: 70},
			{Name: "burst", Weight: 20, DegradeFactor: 1.2, StartupRounds: 4},
			{Name: "legacy", Weight: 10, Capacity: 0.8, DegradeFactor: 1.5},
		},
	}
}

// generateFleet is one fleet.Generate of the spec.
func generateFleet(hosts int, seed int64) error {
	_, err := fleet.Generate(fleetSpec(hosts), seed)
	return err
}

// fleetProblem is the thousand-app placement problem on the generated
// fleet: every app is an alias of one of the 18 real models.
type fleetProblem struct {
	scale fleetScale
	req   placement.Request
	units int            // total units requested
	index map[string]int // app -> position in req.Demands
	down  map[int]bool
	count []int               // verification scratch
	reg   *telemetry.Registry // receives the full searches' counters
}

// newFleetProblem generates the fleet and synthesizes the request.
func newFleetProblem(ms *modelSet, seed int64, scale fleetScale) (*fleetProblem, error) {
	f, err := fleet.Generate(fleetSpec(scale.hosts), seed)
	if err != nil {
		return nil, err
	}
	fp := &fleetProblem{
		scale: scale,
		index: make(map[string]int, scale.apps),
		down:  map[int]bool{},
		count: make([]int, scale.apps),
		reg:   telemetry.NewRegistry(),
	}
	preds := make(map[string]core.Predictor, scale.apps)
	scores := make(map[string]float64, scale.apps)
	demands := make([]cluster.Demand, scale.apps)
	for i := range demands {
		// Models and sizes (2, 4 or 6 units) are dealt round-robin, not
		// drawn: every seed then has the same demand, and the quality
		// figure moves with the search, not with the draw. The seed
		// still decides the models' measurements and the fleet's layout.
		model := ms.names[i%len(ms.names)]
		name := fmt.Sprintf("%s#%04d", model, i)
		demands[i] = cluster.Demand{App: name, Units: 2 + 2*(i/len(ms.names)%3)}
		preds[name] = ms.models[model]
		scores[name] = ms.scores[model]
		fp.index[name] = i
		fp.units += demands[i].Units
	}
	fp.req = placement.Request{
		NumHosts: scale.hosts, SlotsPerHost: paperSlots,
		Demands: demands, Predictors: preds, Scores: scores,
		DownHosts: f.DownAt(0),
	}
	for _, h := range fp.req.DownHosts {
		fp.down[h] = true
	}
	return fp, nil
}

// fleetPhase selects how much of the hierarchical search runs, which is
// how the harness splits its phases from outside.
type fleetPhase int

const (
	fleetFull      fleetPhase = iota // spread, cells, exchange
	fleetCellsOnly                   // exchange cut to one proposal
	fleetSetupOnly                   // cells and exchange cut to one step each
)

// fleetSearched is what the harness keeps of one fleet search.
type fleetSearched struct {
	objective   float64
	evaluations int
}

// search runs the i-th hierarchical search of the problem and verifies
// the placement it returns.
func (fp *fleetProblem) search(i int, phase fleetPhase) (fleetSearched, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2 // >= 2 keeps the trajectory independent of the worker count
	}
	cfg := placement.Config{
		Iterations: 200, Restarts: 1, Cells: fp.scale.cells,
		ExchangeIters: 500, ExchangeWorkers: workers,
		Seed: int64(i) + 1,
	}
	switch phase {
	case fleetFull:
		cfg.Telemetry = fp.reg
	case fleetCellsOnly:
		cfg.ExchangeIters = 1
	case fleetSetupOnly:
		cfg.Iterations, cfg.ExchangeIters = 1, 1
	}
	res, err := placement.Search(fp.req, cfg)
	if err != nil {
		return fleetSearched{}, err
	}
	if err := fp.verify(res.Placement); err != nil {
		return fleetSearched{}, err
	}
	return fleetSearched{objective: res.Objective, evaluations: res.Evaluations}, nil
}

// verify checks a returned fleet placement: the co-location rule holds,
// every app keeps exactly its units, and no unit sits on a down host.
func (fp *fleetProblem) verify(p *cluster.Placement) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for i := range fp.count {
		fp.count[i] = 0
	}
	for h := 0; h < p.NumHosts; h++ {
		for _, a := range p.Slots(h) {
			if a == "" {
				continue
			}
			if fp.down[h] {
				return fmt.Errorf("unit of %q on down host %d", a, h)
			}
			i, ok := fp.index[a]
			if !ok {
				return fmt.Errorf("unknown app %q placed", a)
			}
			fp.count[i]++
		}
	}
	for i, d := range fp.req.Demands {
		if fp.count[i] != d.Units {
			return fmt.Errorf("app %q has %d units, want %d", d.App, fp.count[i], d.Units)
		}
	}
	return nil
}

// exchangeTraffic reads the speculative exchange's counters from the
// registry the fleet searches reported into.
func (fp *fleetProblem) exchangeTraffic() (proposals, accepted, conflicts uint64, occupancy float64) {
	return fp.reg.Counter(placement.MetricExchangeProposals).Value(),
		fp.reg.Counter(placement.MetricExchangeAccepted).Value(),
		fp.reg.Counter(placement.MetricExchangeConflicts).Value(),
		fp.reg.Gauge(placement.MetricExchangeBatchOccupancy).Value()
}

// deltaPredictOp returns one warm core.DeltaPredictPos call on the grid
// and postings of a placement the fleet search itself produced: the apps
// of the first two occupied hosts are re-predicted, the per-proposal work
// of the search's swap loop.
func (fp *fleetProblem) deltaPredictOp() (func() error, error) {
	res, err := placement.Search(fp.req, placement.Config{
		Iterations: 1, Restarts: 1, Cells: fp.scale.cells, ExchangeIters: 1, Seed: 1,
	})
	if err != nil {
		return nil, err
	}
	p := res.Placement
	apps := p.Apps()
	ix, err := core.NewAppsIndex(apps, fp.req.Predictors, fp.req.Scores)
	if err != nil {
		return nil, err
	}
	grid, err := core.NewGrid(p, ix)
	if err != nil {
		return nil, err
	}
	pst := core.NewPostings(grid, len(apps))
	cache := core.NewPredictionCache()
	out := make([]float64, len(apps))
	all := make([]int32, len(apps))
	for i := range all {
		all[i] = int32(i)
	}
	if err := core.DeltaPredictPos(grid, pst, all, ix, cache, out); err != nil {
		return nil, err
	}
	var affected []int32
	for h := 0; h < p.NumHosts && len(affected) < 2; h++ {
		for _, a := range p.HostApps(h) {
			id, _ := ix.IndexOf(a)
			affected = append(affected, id)
		}
	}
	if len(affected) == 0 {
		return nil, errors.New("fleet placement is empty")
	}
	return func() error { return core.DeltaPredictPos(grid, pst, affected, ix, cache, out) }, nil
}

// ---- repro_full -----------------------------------------------------------

// runnerIDs lists the paper's experiments in paper order.
func runnerIDs() []string {
	var ids []string
	for _, r := range experiments.Runners() {
		ids = append(ids, r.ID)
	}
	return ids
}

// lab is one cold experiments.Lab.
type lab struct {
	l   *experiments.Lab
	reg *telemetry.Registry
}

// newLab opens a cold lab. instrumented attaches a telemetry registry,
// which also turns off the closed-form application paths: every run then
// drives the event engine so the sim_* counters fill.
func newLab(seed int64, quick, instrumented bool) (*lab, error) {
	cfg := experiments.Config{Seed: seed, Quick: quick}
	var reg *telemetry.Registry
	if instrumented {
		reg = telemetry.NewRegistry()
		cfg.Telemetry = reg
	}
	l, err := experiments.NewLab(cfg)
	if err != nil {
		return nil, err
	}
	return &lab{l: l, reg: reg}, nil
}

// run executes one experiment and renders it to w.
func (l *lab) run(id string, w io.Writer) error {
	r, err := experiments.RunnerByID(id)
	if err != nil {
		return err
	}
	out, err := r.Run(l.l)
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	_, err = io.WriteString(w, out.Render())
	return err
}

// buildModels builds the lab's models of all 18 workloads.
func (l *lab) buildModels() error {
	for _, w := range workloads.All() {
		if _, err := l.l.Model(w.Name); err != nil {
			return err
		}
	}
	return nil
}

// holdoutVectors is how many held-out pressure vectors each distributed
// workload's model is scored on: enough that the error moves with the
// models, not with the draw (at 16 it spread twice as wide across seeds).
const holdoutVectors = 64

// modelErrPct is the models' accuracy against ground truth on held-out
// data: for each of the 12 distributed workloads, holdoutVectors pressure
// vectors the profiling never saw, mean of |predicted - measured| /
// measured, in percent. Exact for a seed.
func (l *lab) modelErrPct(seed int64) (float64, error) {
	rng := sim.NewRNG(seed).Stream("bench-holdout")
	var sum float64
	n := 0
	for _, w := range workloads.DistributedAll() {
		m, err := l.l.Model(w.Name)
		if err != nil {
			return 0, err
		}
		for v := 0; v < holdoutVectors; v++ {
			ps := hetero.SampleConfig(rng, 8, bubble.MaxPressure)
			pred, err := m.PredictPressures(ps)
			if err != nil {
				return 0, err
			}
			truth, err := l.l.Env.NormalizedWithBubbles(w, ps)
			if err != nil {
				return 0, err
			}
			sum += math.Abs(pred-truth) / truth
			n++
		}
	}
	return 100 * sum / float64(n), nil
}

func (l *lab) cacheTraffic() (hits, misses uint64) {
	return l.l.Cache.Hits(), l.l.Cache.Misses()
}

// simTraffic reads an instrumented lab's event and batch-job counters.
func (l *lab) simTraffic() (eventsFired, batchJobs uint64) {
	return l.reg.Counter(sim.MetricEventsFired).Value(),
		l.reg.Counter(measure.MetricBatchJobs).Value()
}

// ---- micro rungs ----------------------------------------------------------

// contentionSolveOp is one contention.Solve of an application unit beside
// a bubble.
func contentionSolveOp() (func() error, error) {
	w, err := workloads.ByName("M.milc")
	if err != nil {
		return nil, err
	}
	node := contention.DefaultNode()
	occ := []contention.Occupant{
		{Name: "app", Prof: w.Prof, Cores: 8},
		{Name: "bubble", Prof: bubble.Profile(6), Cores: 8},
	}
	return func() error {
		_, err := contention.Solve(node, occ)
		return err
	}, nil
}

// appRunOp is one uninstrumented app.Spec.Run of the named workload over
// eight nodes, one of them interfered; the closed-form paths are active.
func appRunOp(name string, seed int64) (func() error, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	sd := []float64{2, 1, 1, 1, 1.5, 1, 1, 1}
	net := netsim.TenGbE()
	i := seed
	return func() error {
		i++
		_, err := w.App.Run(app.Params{Slowdown: sd, Net: net, RNG: sim.NewRNG(i)})
		return err
	}, nil
}

// measureBatchOp is one uncached 24-cell propagation grid (3 pressures x
// 8 interfering-node counts) through measure.Env.NewBatch; it returns the
// job count per call alongside.
func measureBatchOp(seed int64) (func() error, int, error) {
	env, err := measure.NewEnv(cluster.Default(), seed)
	if err != nil {
		return nil, 0, err
	}
	w, err := workloads.ByName("M.milc")
	if err != nil {
		return nil, 0, err
	}
	var grid [][]float64
	for _, p := range []float64{2, 5, 8} {
		for c := 0; c <= 7; c++ {
			ps, err := measure.HomogeneousPressures(8, c, p)
			if err != nil {
				return nil, 0, err
			}
			grid = append(grid, ps)
		}
	}
	return func() error {
		bt := env.NewBatch()
		handles := make([]*measure.Value, len(grid))
		for i, ps := range grid {
			handles[i] = bt.Normalized(w, ps)
		}
		if err := bt.Run(); err != nil {
			return err
		}
		for _, h := range handles {
			if _, err := h.Result(); err != nil {
				return err
			}
		}
		return nil
	}, len(grid), nil
}

// runPlacementOp is one measure.Env.RunPlacement of a packed four-app
// placement on the paper's cluster — the simulator truth the model-driven
// search avoids.
func runPlacementOp(seed int64) (func() error, error) {
	env, err := measure.NewEnv(cluster.Default(), seed)
	if err != nil {
		return nil, err
	}
	reg := map[string]workloads.Workload{}
	var demands []cluster.Demand
	for _, n := range []string{"M.milc", "C.libq", "H.KM", "M.lmps"} {
		w, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		reg[n] = w
		demands = append(demands, cluster.Demand{App: n, Units: 4})
	}
	p, err := cluster.PackedPlacement(paperHosts, paperSlots, demands)
	if err != nil {
		return nil, err
	}
	return func() error {
		_, err := env.RunPlacement(p, reg)
		return err
	}, nil
}

// samplePressures draws n heterogeneous pressure vectors.
func samplePressures(seed int64, n int) [][]float64 {
	rng := sim.NewRNG(seed).Stream("bench-rungs")
	out := make([][]float64, n)
	for i := range out {
		out[i] = hetero.SampleConfig(rng, 8, bubble.MaxPressure)
	}
	return out
}

// heteroConvertOp is one hetero.Policy.Convert on a sampled vector.
func (ms *modelSet) heteroConvertOp(seed int64) func() error {
	pol := ms.models["M.milc"].Policy
	vs := samplePressures(seed, 64)
	i := 0
	return func() error {
		i++
		_, _, err := pol.Convert(vs[i%len(vs)])
		return err
	}
}

// matrixAtOp is one profile.Matrix.At on a sampled point.
func (ms *modelSet) matrixAtOp(seed int64) func() error {
	mat := ms.models["M.milc"].Matrix
	rng := rand.New(rand.NewSource(seed))
	type pt struct{ p, n float64 }
	pts := make([]pt, 64)
	for i := range pts {
		pts[i] = pt{p: rng.Float64() * float64(bubble.MaxPressure), n: rng.Float64() * 8}
	}
	i := 0
	return func() error {
		i++
		_, err := mat.At(pts[i%len(pts)].p, pts[i%len(pts)].n)
		return err
	}
}

// heteroSelectOp is one hetero.SelectBatch at the paper's 60 samples
// against the set's own environment (the measurement cache is warm after
// the first call, as it is for the later workloads of a model build).
func (ms *modelSet) heteroSelectOp(seed int64) (func() error, error) {
	w, err := workloads.ByName("M.milc")
	if err != nil {
		return nil, err
	}
	mat := ms.models[w.Name].Matrix
	meas := core.HeteroBatchMeasurer(ms.env, w)
	return func() error {
		_, err := hetero.SelectBatch(mat, meas, 8, bubble.MaxPressure, 60, sim.NewRNG(seed).Stream("bench-select"))
		return err
	}, nil
}

// ---- misc -----------------------------------------------------------------

// interfdArgs is the command line the HTTP workloads start the daemon
// with; it is the whole flag surface the benchmark depends on.
func interfdArgs(seed int64, addrFile, reportFile string) []string {
	return []string{
		"-serve-only",
		"-listen", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-mix", strings.Join(workloadNames(), ","),
		"-profile-samples", "60",
		"-seed", fmt.Sprint(seed),
		"-report", reportFile,
		"-drift-audit", "",
		"-log-level", "error",
	}
}
