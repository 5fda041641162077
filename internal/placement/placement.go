// Package placement implements the paper's two interference-aware
// placement case studies (Section 5): a simulated-annealing search over
// unit-to-host assignments whose objective is evaluated with the
// interference model — either to maximize overall throughput (Section 5.3)
// or to satisfy a QoS constraint on a mission-critical application while
// improving everyone else (Section 5.2).
//
// A placement assigns application units to host slots; a move swaps the
// contents of two slots (including moves into empty slots), the paper's
// "swap two VMs running different workloads". Placements violating the
// pairwise co-location rule are rejected outright. cluster.Placement and
// the per-app prediction map are the package's boundary format only: a
// Request is bound to dense app indexes once, the search runs on an
// int32 grid (engine.go), and one Result is materialized at the end.
package placement

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Request describes a placement problem: which applications need how many
// units on which cluster, and the models driving the prediction.
type Request struct {
	NumHosts     int
	SlotsPerHost int
	// AppsPerHostLimit bounds distinct applications per host; 0 means
	// the paper's pairwise rule. Raising it engages the Section 4.4
	// score-combination extension in the model's pressure derivation.
	AppsPerHostLimit int
	Demands          []cluster.Demand
	Predictors       map[string]core.Predictor
	Scores           map[string]float64 // bubble score per application
	// DownHosts lists crashed hosts (from the fault layer): the search
	// never places a unit on them and rejects any proposal touching
	// them, re-planning around the unhealthy part of the cluster.
	DownHosts []int
}

// bound is a Request validated and bound to dense app indexes, once per
// Search: the whole-request problem (apps sorted by name, so index order
// is the order the objective accumulates in) plus what materialize needs
// to name a grid back into a Placement.
type bound struct {
	problem
	appsLimit int // the request's raw AppsPerHostLimit
}

// bind validates req and binds it.
func bind(req Request) (b *bound, err error) {
	if req.NumHosts <= 0 || req.SlotsPerHost <= 0 {
		return nil, errors.New("placement: non-positive cluster dimensions")
	}
	if req.AppsPerHostLimit < 0 {
		return nil, errors.New("placement: negative apps-per-host limit")
	}
	if len(req.Demands) == 0 {
		return nil, errors.New("placement: no demands")
	}
	b = &bound{appsLimit: req.AppsPerHostLimit}
	b.hosts, b.slots, b.limit = req.NumHosts, req.SlotsPerHost, req.AppsPerHostLimit
	if b.limit == 0 {
		b.limit = cluster.MaxAppsPerHost
	}
	downN := 0
	for _, h := range req.DownHosts {
		if h < 0 || h >= req.NumHosts {
			return nil, fmt.Errorf("placement: down host %d out of range", h)
		}
		if b.down == nil {
			b.down = make([]bool, req.NumHosts)
		}
		if !b.down[h] {
			b.down[h] = true
			downN++
		}
	}
	// order lists the demands by app name: position in it is the app's
	// dense index.
	order := make([]int, len(req.Demands))
	total := 0
	for i, d := range req.Demands {
		if d.App == "" || d.Units <= 0 {
			return nil, fmt.Errorf("placement: bad demand %+v", d)
		}
		total += d.Units
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int { return strings.Compare(req.Demands[x].App, req.Demands[y].App) })
	apps := make([]string, len(order))
	b.demand = make([]appUnits, len(order))
	for id, di := range order {
		d := req.Demands[di]
		if id > 0 && d.App == apps[id-1] {
			return nil, fmt.Errorf("placement: duplicate demand for %q", d.App)
		}
		apps[id] = d.App
		b.demand[di] = appUnits{id: int32(id), units: d.Units}
	}
	if b.ix, err = core.NewAppsIndex(apps, req.Predictors, req.Scores); err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}
	if surviving := (req.NumHosts - downN) * req.SlotsPerHost; total > surviving {
		return nil, fmt.Errorf("placement: %d units exceed %d surviving slots (%d of %d hosts down)",
			total, surviving, downN, req.NumHosts)
	}
	return b, nil
}

// constrain validates the QoS constraint (nil for none) and binds it to
// the problem's index: the bound must be satisfiable (at least 1) and the
// constrained app among the problem's apps. Search and Evaluate both
// check it here.
func (p *problem) constrain(qos *QoS) error {
	if qos == nil {
		return nil
	}
	if qos.MaxNormalized < 1 {
		return fmt.Errorf("placement: QoS bound %v below 1 is unsatisfiable", qos.MaxNormalized)
	}
	id, ok := slices.BinarySearch(p.ix.Apps, qos.App)
	if !ok {
		return fmt.Errorf("placement: QoS app %q not among demands", qos.App)
	}
	p.qos, p.qosIdx = qos, int32(id)
	return nil
}

// QoS constrains one application's predicted normalized execution time.
// MaxNormalized = 1.25 corresponds to the paper's "80% of the solo-run
// performance" guarantee.
type QoS struct {
	App           string
	MaxNormalized float64
}

// Goal selects the search direction.
type Goal int

// Search goals: Best minimizes the weighted normalized runtime (maximizes
// throughput); Worst maximizes it, giving the paper's comparison bound.
const (
	Best Goal = iota
	Worst
)

// initTemp is the annealer's starting temperature; coolRate cools it
// geometrically to about 1e-3 of that by a search's final step.
const initTemp = 0.5

func coolRate(iters int) float64 { return math.Pow(1e-3, 1/float64(iters)) }

// Config tunes the placement search.
type Config struct {
	Iterations int // annealing steps (default 4000)
	Seed       int64
	Goal       Goal
	QoS        *QoS // optional QoS constraint (only meaningful with Best)
	Restarts   int  // independent restarts (default 3)

	// Cells shards the request's hosts into this many contiguous cells
	// for the fleet-scale hierarchical search: demands are spread across
	// cells by free capacity, each cell anneals independently (its own
	// restarts, in parallel), and a cross-cell exchange phase then swaps
	// units between cells through the same incremental delta/undo
	// machinery, merged deterministically in cell order. 0 or 1 runs the
	// flat single-list search, bit-identical to the pre-cell engine.
	Cells int
	// ExchangeIters is the number of cross-cell exchange proposals run
	// after the cell phase (hierarchical search only; 0 defaults to
	// Iterations). Setting it with Cells <= 1 is a validation error.
	ExchangeIters int
	// ExchangeWorkers caps how many goroutines score an exchange batch
	// concurrently (hierarchical search only); 0 sizes the phase to
	// GOMAXPROCS, as the cell phase sizes itself. It never selects an
	// algorithm: the exchange is one deterministic batched annealer (see
	// exchange.go) whose trajectory is a pure function of the seed,
	// identical for every value. Setting it with Cells <= 1 is a
	// validation error.
	ExchangeWorkers int

	// Telemetry, when non-nil, receives the search counters and the
	// closing gauges named by the Metric* constants once the search
	// ends. Tracer, when non-nil, receives one span per restart. Both
	// are ignored when nil and never affect the search trajectory, which
	// depends only on Seed.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
}

// Metric names recorded by Search when Config.Telemetry is set.
const (
	metricIterations     = "placement_iterations_total"
	metricProposals      = "placement_proposals_total"
	metricAccepted       = "placement_accepted_total"
	MetricRejected       = "placement_rejected_total"
	metricInvalid        = "placement_invalid_total"
	metricEvaluations    = "placement_evaluations_total"
	metricRestarts       = "placement_restarts_total"
	metricAcceptanceRate = "placement_acceptance_rate"
	MetricBestObjective  = "placement_best_objective"
	metricFinalTemp      = "placement_final_temperature"
	// Prediction-memo cache traffic across all restarts of a search.
	// The combine pair counts the co-runner score-combine memo, which
	// sits under every pressure-vector build and was previously
	// invisible (its hits/misses reached no counter at all).
	MetricPredCacheHits          = "placement_prediction_cache_hits_total"
	MetricPredCacheMisses        = "placement_prediction_cache_misses_total"
	metricPredCacheCombineHits   = "placement_prediction_cache_combine_hits_total"
	metricPredCacheCombineMisses = "placement_prediction_cache_combine_misses_total"
	// Hierarchical (cell-sharded) search: the cell count in use and the
	// cross-cell exchange phase's proposal traffic. Conflicts counts
	// speculative proposals that had to be re-evaluated serially because
	// an earlier commit in the same batch dirtied one of their hosts or
	// apps; batch occupancy is the mean fraction of speculative
	// evaluations per batch whose results were consumed as-is. Both are
	// functions of the seed alone, not of the evaluator count.
	metricCells                  = "placement_cells"
	MetricExchangeProposals      = "placement_exchange_proposals_total"
	MetricExchangeAccepted       = "placement_exchange_accepted_total"
	MetricExchangeConflicts      = "placement_exchange_conflicts_total"
	MetricExchangeBatchOccupancy = "placement_exchange_batch_occupancy"
)

// DefaultConfig returns the tuning used by the experiments.
func DefaultConfig(seed int64) Config {
	return Config{Iterations: 4000, Seed: seed, Restarts: 3}
}

// Result is the outcome of a placement search.
type Result struct {
	Placement    *cluster.Placement
	Predicted    map[string]float64 // model-predicted normalized time per app
	Objective    float64            // weighted normalized runtime of Placement
	QoSSatisfied bool               // constraint holds under the model
	Evaluations  int                // model evaluations performed
	// CombineHits/Misses count the co-runner combine-memo traffic across
	// all restarts, so callers without a telemetry registry (the serving
	// plane) can still account it.
	CombineHits   uint64
	CombineMisses uint64
}

// qosPenaltyWeight makes any constraint violation dominate the weighted
// runtime objective, so the search always prefers feasibility first —
// the paper's "meets the delay constraint first" acceptance rule.
const qosPenaltyWeight = 1000

// Evaluate scores one concrete placement against the request's model —
// the what-if primitive: the serving plane uses it to answer "what would
// this exact assignment cost" without running a search. It binds the
// placement's own apps, sorted as a search binds them, and starts the
// search's engine on the placement's cells, so it returns the objective,
// predictions and QoS verdict a search reaching p records, in the same
// Result shape (with Evaluations = 1). Only req.Predictors and
// req.Scores are read, and every app in p needs both; a QoS constraint
// is checked as Search checks it.
func Evaluate(p *cluster.Placement, req Request, qos *QoS) (Result, error) {
	if p == nil {
		return Result{}, errors.New("placement: nil placement")
	}
	var apps []string
	for h := 0; h < p.NumHosts; h++ {
		for _, a := range p.Slots(h) {
			if a == "" {
				continue
			}
			if i, ok := slices.BinarySearch(apps, a); !ok {
				apps = slices.Insert(apps, i, a)
			}
		}
	}
	if len(apps) == 0 {
		return Result{}, errors.New("placement: empty placement")
	}
	ix, err := core.NewAppsIndex(apps, req.Predictors, req.Scores)
	if err != nil {
		return Result{}, fmt.Errorf("placement: %w", err)
	}
	pr := problem{ix: ix, hosts: p.NumHosts, slots: p.HostSlots, limit: p.AppsPerHostLimit()}
	if err := pr.constrain(qos); err != nil {
		return Result{}, err
	}
	ws := acquireWorkspace()
	defer releaseWorkspace(ws)
	ws.e.grid.Reset(pr.hosts, pr.slots)
	cells := ws.e.grid.Cells()
	for h := 0; h < p.NumHosts; h++ {
		for s, a := range p.Slots(h) {
			if a != "" {
				id, _ := slices.BinarySearch(apps, a)
				cells[h*pr.slots+s] = int32(id)
			}
		}
	}
	ws.staleAll(len(apps))
	var w walk
	if err := w.begin(ws, &pr, 1); err != nil {
		return Result{}, err
	}
	return Result{
		Placement:    p,
		Predicted:    pr.predicted(ws.e.pred),
		Objective:    w.curObj,
		QoSSatisfied: ws.e.qosOK(),
		Evaluations:  1,
	}, nil
}

// Search runs the annealing placement search and returns the best
// placement found across restarts.
//
// The request is validated and bound to dense indexes once; the search
// itself never touches a string (see engine.go). Each restart is an
// independent trajectory on its own derived RNG stream, so the restarts
// run in parallel (one goroutine each) and are merged in restart order —
// the Result is bit-identical to a serial sweep for a given seed. Search
// is SearchAll's one-search case.
func Search(req Request, cfg Config) (Result, error) {
	var res [1]Result
	if err := searchAll([]Job{{Req: req, Cfg: cfg}}, 0, res[:]); err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// Job is one search of a SearchAll batch.
type Job struct {
	Req Request
	Cfg Config
}

// SearchAll runs many searches side by side and returns their results in
// job order. The restarts of every flat search share one fan-out of
// workers goroutines (<= 0 means GOMAXPROCS); hierarchical searches
// (Cells > 1) follow one at a time, each fanning out its own cells. Every
// result is bit-identical to Search(job.Req, job.Cfg), whatever workers
// is. The searches' telemetry is published in job order once all have
// run, so a registry ends as the same searches run one by one leave it.
// On failure SearchAll returns the first error in job order, having
// published the telemetry of the searches before it only — what a loop of
// Search calls that stops at its first error leaves behind.
func SearchAll(jobs []Job, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]Result, len(jobs))
	if err := searchAll(jobs, workers, results); err != nil {
		return nil, err
	}
	return results, nil
}

// prepared is one search validated, bound and given its defaults, then
// what it leaves for its telemetry: a flat search's restarts, or a
// hierarchical one's stats.
type prepared struct {
	b    *bound
	cfg  Config
	sign float64
	outs *outcomes  // a flat search's restarts
	hier *hierStats // a hierarchical search's
}

// searchAll is SearchAll into results, one per job, with workers 0
// meaning one goroutine per restart.
func searchAll(jobs []Job, workers int, results []Result) error {
	runs := make([]prepared, 0, len(jobs))
	var err error
	for i := range jobs {
		var r prepared
		if r, err = prepare(jobs[i].Req, jobs[i].Cfg); err != nil {
			break // no later search needs running: err is the first
		}
		runs = append(runs, r)
	}
	flat := make([]annealJob, 0, len(runs))
	for i := range runs {
		r := &runs[i]
		if r.cfg.Cells <= 1 {
			r.outs = acquireOutcomes(r.cfg.Restarts)
			flat = append(flat, newAnnealJob(&r.b.problem, &r.cfg, r.sign, r.cfg.Seed, r.outs))
		}
	}
	defer func() {
		for i := range runs {
			if runs[i].outs != nil {
				releaseOutcomes(runs[i].outs)
			}
		}
	}()
	if workers == 0 {
		for _, j := range flat {
			workers += len(j.outs)
		}
	}
	annealAll(flat, workers)

	done := 0
	for ; done < len(runs); done++ {
		r := &runs[done]
		var rerr error
		if r.outs == nil {
			results[done], rerr = r.searchHierarchical()
		} else {
			results[done], rerr = r.finishFlat()
		}
		if rerr != nil {
			err = rerr
			break
		}
	}
	for i := range done {
		runs[i].record(&results[i])
	}
	return err
}

// prepare validates and binds one search and applies its defaults.
func prepare(req Request, cfg Config) (prepared, error) {
	b, err := bind(req)
	if err != nil {
		return prepared{}, err
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 4000
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 3
	}
	if cfg.QoS != nil && cfg.Goal == Worst {
		// With Goal Worst the acceptance delta is negated, which would
		// turn the QoS penalty into a reward for violating the
		// constraint — the search would actively hunt infeasible
		// placements.
		return prepared{}, errors.New("placement: QoS constraint cannot be combined with Goal Worst (the inverted search direction rewards violating the constraint); drop the QoS or use Goal Best")
	}
	if err := b.constrain(cfg.QoS); err != nil {
		return prepared{}, err
	}

	// Reject nonsensical cell configurations up front rather than letting
	// them surface as partition panics or silently-ignored knobs.
	if cfg.Cells < 0 {
		return prepared{}, fmt.Errorf("placement: negative cell count %d", cfg.Cells)
	}
	if cfg.Cells > req.NumHosts {
		return prepared{}, fmt.Errorf("placement: %d cells exceed %d hosts", cfg.Cells, req.NumHosts)
	}
	if cfg.ExchangeIters < 0 {
		return prepared{}, fmt.Errorf("placement: negative exchange iterations %d", cfg.ExchangeIters)
	}
	if cfg.ExchangeIters > 0 && cfg.Cells <= 1 {
		return prepared{}, errors.New("placement: exchange iterations require Cells > 1 (there is no cross-cell phase in the flat search)")
	}
	if cfg.ExchangeWorkers < 0 {
		return prepared{}, fmt.Errorf("placement: negative exchange workers %d", cfg.ExchangeWorkers)
	}
	if cfg.ExchangeWorkers > 0 && cfg.Cells <= 1 {
		return prepared{}, errors.New("placement: exchange workers require Cells > 1 (there is no cross-cell phase in the flat search)")
	}

	sign := 1.0
	if cfg.Goal == Worst {
		sign = -1
	}
	return prepared{b: b, cfg: cfg, sign: sign}, nil
}

// finishFlat merges a flat search's restarts, which have run, into its
// Result: only the winner's compact best state is materialized into a
// Placement and prediction map.
func (r *prepared) finishFlat() (Result, error) {
	outs := r.outs.s
	win, err := winner(outs, r.b.qos != nil, r.sign)
	if err != nil {
		return Result{}, err
	}
	best, err := r.b.materialize(&outs[win].best)
	if err != nil {
		return Result{}, err
	}
	sum := r.sum()
	best.Evaluations = sum.evals
	best.CombineHits, best.CombineMisses = sum.chits, sum.cmisses
	return best, nil
}

// sum is a flat search's restarts summed, at the last one's final
// temperature.
func (r *prepared) sum() tally {
	var sum tally
	for i := range r.outs.s {
		sum.add(&r.outs.s[i].tally)
	}
	sum.finalTemp = r.outs.s[len(r.outs.s)-1].finalTemp
	return sum
}

// record publishes a finished search's telemetry, if it has a registry.
func (r *prepared) record(best *Result) {
	switch reg := r.cfg.Telemetry; {
	case reg == nil:
	case r.hier != nil:
		r.recordHierarchical(reg, best)
	default:
		r.recordFlat(reg, best)
	}
}

// recordFlat publishes a flat search's telemetry.
func (r *prepared) recordFlat(reg *telemetry.Registry, best *Result) {
	reg.Counter(metricIterations).Add(uint64(r.cfg.Restarts) * uint64(r.cfg.Iterations))
	reg.Counter(metricRestarts).Add(uint64(r.cfg.Restarts))
	sum := r.sum()
	recordTally(reg, &sum, best.Objective)
	if p := reg.Counter(metricProposals).Value(); p > 0 {
		reg.Gauge(metricAcceptanceRate).Set(float64(reg.Counter(metricAccepted).Value()) / float64(p))
	}
}

// recordTally publishes the counters and closing gauges both search
// paths share.
func recordTally(reg *telemetry.Registry, t *tally, bestObjective float64) {
	reg.Counter(metricProposals).Add(t.proposals)
	reg.Counter(metricAccepted).Add(t.accepted)
	reg.Counter(MetricRejected).Add(t.rejected)
	reg.Counter(metricInvalid).Add(t.invalid)
	reg.Counter(metricEvaluations).Add(uint64(t.evals))
	reg.Counter(MetricPredCacheHits).Add(t.hits)
	reg.Counter(MetricPredCacheMisses).Add(t.misses)
	reg.Counter(metricPredCacheCombineHits).Add(t.chits)
	reg.Counter(metricPredCacheCombineMisses).Add(t.cmisses)
	reg.Gauge(MetricBestObjective).Set(bestObjective)
	reg.Gauge(metricFinalTemp).Set(t.finalTemp)
}

// RandomOutcome scores n random valid placements with the search's
// engine and returns their placements and objectives (the paper's
// Random baseline averages five of these). With no constraint to meet,
// every sample is QoSSatisfied.
func RandomOutcome(req Request, n int, seed int64) ([]Result, error) {
	b, err := bind(req)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, errors.New("placement: non-positive sample count")
	}
	rng := sim.NewRNG(seed).Stream("random-placements")
	ws := acquireWorkspace()
	defer releaseWorkspace(ws)
	out := make([]Result, 0, n)
	for i := 0; i < n; i++ {
		if err := b.sample(ws, rng.StreamN("p", i)); err != nil {
			return nil, err
		}
		ws.best.have = false // each sample is its own result, not a best-so-far
		var w walk
		if err := w.begin(ws, &b.problem, 1); err != nil {
			return nil, err
		}
		r, err := b.materialize(&ws.best)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
