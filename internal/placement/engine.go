// The index-native annealing engine behind Search. A request is bound to
// dense app indexes once (bind); from there to the single final
// materialize the whole search state is the int32 core.Grid, its per-app
// core.Postings and a prediction slice — no cluster.Placement, string or
// map. A restart samples its initial placement straight into grid cells
// (cluster.SampleCells, which cluster.RandomValidDown wraps), then
// proposes, validates, evaluates and undoes swaps on the grid alone: a
// swap touches at most two hosts, so only the apps with units there are
// re-predicted (core.DeltaPredictPos, memoized by a core.PredictionCache)
// and a rejected swap is swapped back.
//
// One routine serves both scales: the flat search is one problem covering
// the whole request; the hierarchical search (hier.go) runs one problem
// per cell on a sub-index sliced from the request's, and its exchange
// phase drives the same walk over the fleet-wide grid. Restarts are
// independent — each draws from its own StreamN("restart", i) seed — so
// one fan-out (annealAll) runs the restarts of one search or of many side
// by side, and each search merges its own in restart order, making every
// result bit-identical to a serial sweep.

package placement

import (
	"errors"
	"math"
	"slices"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// workspace is the pooled storage of one walk (or one cell's set-up):
// the engine with its grid, postings and memo cache (open-addressed
// tables, key arenas, scratch buffers), the best-state buffers, and the
// sampler and cell scratch. Pooling recycles capacity only, never
// values: acquireWorkspace empties the memo cache — its contents are
// keyed by dense app indexes that only mean something under one
// AppsIndex binding — and every other field is overwritten before it is
// read, so reuse cannot perturb a trajectory.
type workspace struct {
	e     incEval
	best  bestState
	units []int32 // sampler: one app id per unit, demand order
	perm  []int32 // sampler: permutation scratch
	// The walk's two streams: proposals and initial sampling for a
	// restart, geometry and acceptance for the exchange.
	draw, aux sim.RNG
	// Cell set-up: the cell's app ids in the request's index, its
	// sub-index, and its demands and down flags in local terms.
	ids    []int32
	sub    core.AppsIndex
	demand []appUnits
	down   []bool
	// stale lists the apps the walk's start must predict: every app for
	// a restart, the apps split across cells for the exchange.
	stale []int32
	// The exchange phase's scratch (exchange.go): its evaluators, one
	// batch of proposals, the dirtiness epochs, the batch's commits, and
	// the commit loop's objective groups.
	evaluators    []*workspace
	props         []exProposal
	hostEp, appEp []int
	commits       []swapMove
	objs          objGroup
}

var workspacePool = sync.Pool{New: func() any { return new(workspace) }}

func acquireWorkspace() *workspace {
	ws := workspacePool.Get().(*workspace)
	ws.best.have = false
	ws.e.cache.Reset()
	return ws
}

func releaseWorkspace(ws *workspace) { workspacePool.Put(ws) }

// streamSeed is the seed to Reset a pooled RNG onto Stream(name) of seed.
func streamSeed(seed int64, name string) int64 { return sim.NewRNG(seed).Stream(name).Seed() }

// appUnits is one demand in index form.
type appUnits struct {
	id    int32
	units int
}

// problem is one annealing problem in index form: a whole request (the
// flat search, the exchange phase) or one cell of it.
type problem struct {
	ix           *core.AppsIndex // the problem's apps, sorted by name
	demand       []appUnits      // units to place, in request order
	hosts, slots int
	limit        int    // effective distinct-app limit per host
	down         []bool // per host; nil when no host is down
	qos          *QoS   // nil when unconstrained or the QoS app is not in ix
	qosIdx       int32  // the QoS app's index in ix when qos != nil
}

// sample draws a random valid initial placement into ws.e.grid. The
// state has no prediction yet, so it sizes ws.e.pred and lists every app
// in ws.stale for the walk's start.
func (p *problem) sample(ws *workspace, rng *sim.RNG) error {
	n := len(p.ix.Apps)
	ws.e.pred = slices.Grow(ws.e.pred[:0], n)[:n]
	ws.stale = ws.stale[:0]
	for i := 0; i < n; i++ {
		ws.stale = append(ws.stale, int32(i))
	}
	g := &ws.e.grid
	g.Reset(p.hosts, p.slots)
	ws.units = ws.units[:0]
	for _, d := range p.demand {
		for i := 0; i < d.units; i++ {
			ws.units = append(ws.units, d.id)
		}
	}
	ws.perm = slices.Grow(ws.perm[:0], len(g.Cells()))[:len(g.Cells())]
	return cluster.SampleCells(rng, g.Cells(), ws.perm, p.slots, p.limit, ws.units, p.down, 0)
}

// bestSnap is the comparable skeleton of a best-so-far state, the part
// restart merging compares.
type bestSnap struct {
	obj   float64
	qosOK bool
}

// bestState is the compact best-so-far record of one walk: the
// objective/feasibility skeleton plus raw grid cells and predictions,
// copied into reusable buffers on each improvement.
type bestState struct {
	have  bool
	obj   float64
	qosOK bool
	cells []int32
	pred  []float64
}

// snap returns the comparable skeleton.
func (b *bestState) snap() bestSnap { return bestSnap{obj: b.obj, qosOK: b.qosOK} }

// copyFrom makes b a copy of src in b's own buffers.
func (b *bestState) copyFrom(src *bestState) {
	b.have, b.obj, b.qosOK = src.have, src.obj, src.qosOK
	b.cells = append(b.cells[:0], src.cells...)
	b.pred = append(b.pred[:0], src.pred...)
}

// tally is what one walk did: the counters a serial instrumented run
// would have accumulated.
type tally struct {
	evals     int
	proposals uint64
	accepted  uint64
	rejected  uint64
	invalid   uint64
	hits      uint64 // prediction-cache hits
	misses    uint64 // prediction-cache misses
	chits     uint64 // combine-memo hits
	cmisses   uint64 // combine-memo misses
	finalTemp float64
}

// add folds the counters of o into t (finalTemp is per-walk, not summed).
func (t *tally) add(o *tally) {
	t.evals += o.evals
	t.proposals += o.proposals
	t.accepted += o.accepted
	t.rejected += o.rejected
	t.invalid += o.invalid
	t.hits += o.hits
	t.misses += o.misses
	t.chits += o.chits
	t.cmisses += o.cmisses
}

// restartOutcome is everything one restart produces: its tally and a
// copy of its best state, taken before its workspace went back to the
// pool.
type restartOutcome struct {
	tally
	best bestState
	err  error
}

// outcomes is pooled storage for a fan-out's restart outcomes: the
// best-state copies reuse their buffers, so a warm search allocates none.
type outcomes struct{ s []restartOutcome }

var outcomesPool = sync.Pool{New: func() any { return new(outcomes) }}

// acquireOutcomes returns storage for n restart outcomes, every field of
// which runRestart overwrites.
func acquireOutcomes(n int) *outcomes {
	o := outcomesPool.Get().(*outcomes)
	o.s = slices.Grow(o.s[:0], n)[:n]
	return o
}

func releaseOutcomes(o *outcomes) { outcomesPool.Put(o) }

// betterSnap reports whether cand should replace best under the
// search's acceptance order: feasibility first when a QoS constraint is
// active, then strict objective improvement in the goal's direction.
// Ties keep the incumbent, which is what makes restart-order merging
// bit-identical to a serial sweep.
func betterSnap(qosEnabled bool, sign float64, cand, best bestSnap) bool {
	switch {
	case qosEnabled && cand.qosOK && !best.qosOK:
		return true
	case qosEnabled && !cand.qosOK && best.qosOK:
		return false
	default:
		return sign*cand.obj < sign*best.obj
	}
}

// incEval evaluates a grid incrementally: it owns the grid, the per-app
// unit postings kept in lockstep with it, the current per-app prediction
// slice, a candidate mirror, and the memo cache. The weighted objective
// is accumulated in index order — sorted-app order, the order Objective
// uses — so it is bit-identical to a full evaluate.
type incEval struct {
	ix     *core.AppsIndex
	qos    *QoS
	qosIdx int32
	limit  int
	grid   core.Grid
	pst    core.Postings
	units  []float64 // unit count per app
	weight float64   // total units, accumulated in index order
	pred   []float64 // predictions for the current state, by app index
	cand   []float64 // mirror of pred with the proposal's deltas
	cache  core.PredictionCache
	// pending proposal scratch: the touched apps and the swap to undo on
	// reject.
	affected       []int32
	pendHA, pendSA int
	pendHB, pendSB int
}

// start binds the engine to p over the cells already in e.grid: it
// builds the postings and unit weights and predicts the stale apps into
// e.pred, which holds one entry per app of p and whose other entries
// already hold their apps' predictions on this grid.
func (e *incEval) start(p *problem, stale []int32) error {
	n := len(p.ix.Apps)
	e.ix, e.qos, e.qosIdx, e.limit = p.ix, p.qos, p.qosIdx, p.limit
	e.pst.Rebuild(&e.grid, n)
	e.units = e.units[:0]
	e.weight = 0
	for i := 0; i < n; i++ {
		w := float64(e.pst.Units(int32(i)))
		e.units = append(e.units, w)
		e.weight += w
	}
	if err := core.DeltaPredictPos(&e.grid, &e.pst, stale, e.ix, &e.cache, e.pred); err != nil {
		return err
	}
	e.cand = append(e.cand[:0], e.pred...)
	return nil
}

// objective computes the unit-weighted mean of the given predictions in
// sorted-app order, matching Objective's accumulation exactly.
func (e *incEval) objective(pred []float64) float64 {
	var total float64
	for i := range pred {
		total += pred[i] * e.units[i]
	}
	return total / e.weight
}

// energy adds the QoS penalty to an objective, as evaluate does.
func (e *incEval) energy(obj float64, pred []float64) float64 {
	if e.qos != nil {
		if excess := pred[e.qosIdx] - e.qos.MaxNormalized; excess > 0 {
			return obj + qosPenaltyWeight*excess
		}
	}
	return obj
}

// qosOK reports whether the current state meets the QoS constraint
// (vacuously true without one).
func (e *incEval) qosOK() bool {
	return e.qos == nil || e.pred[e.qosIdx] <= e.qos.MaxNormalized
}

// swap exchanges two slots on the grid and its postings; it is its own
// inverse.
func (e *incEval) swap(ha, sa, hb, sb int) {
	e.grid.Swap(ha, sa, hb, sb)
	e.pst.Swap(&e.grid, ha, sa, hb, sb)
}

// propose applies the swap (ha,sa)<->(hb,sb) and, if both touched hosts
// still hold at most limit distinct apps, re-predicts the apps with units
// on them into e.cand; valid=false means the swap broke the co-location
// rule and has been undone. Otherwise the deltas live in e.cand — and
// the swap in the grid — until accept or reject (exactly one of which
// must follow, also on error).
func (e *incEval) propose(ha, sa, hb, sb int) (valid bool, err error) {
	e.swap(ha, sa, hb, sb)
	rows := [2][]int32{e.grid.Row(ha), e.grid.Row(hb)}
	// A row cannot hold more distinct apps than it has slots, so the
	// rule needs checking only when the limit is below the slot count.
	if e.limit < len(rows[0]) && (cluster.Distinct(rows[0], -1) > e.limit || cluster.Distinct(rows[1], -1) > e.limit) {
		e.swap(ha, sa, hb, sb)
		return false, nil
	}
	e.pendHA, e.pendSA, e.pendHB, e.pendSB = ha, sa, hb, sb
	// The affected apps are the distinct apps on row ha then hb, in slot
	// order: the order DeltaPredictPos walks them in.
	e.affected = e.affected[:0]
	for _, row := range rows {
		for _, id := range row {
			if id >= 0 && !slices.Contains(e.affected, id) {
				e.affected = append(e.affected, id)
			}
		}
	}
	return true, core.DeltaPredictPos(&e.grid, &e.pst, e.affected, e.ix, &e.cache, e.cand)
}

// mirror makes e a frozen copy of src's grid and postings for
// speculative evaluation; replaying src's later swaps (swap) keeps it
// one. Its memo cache persists within one workspace acquisition (memo
// contents are pure, so reuse can only save work). Predictions are not
// copied: a speculator reads only the entries of e.cand that propose has
// just written.
func (e *incEval) mirror(src *incEval) {
	e.ix, e.limit = src.ix, src.limit
	e.grid.CopyFrom(&src.grid)
	e.pst.CopyFrom(&src.pst)
	e.pred = slices.Grow(e.pred[:0], len(src.pred))[:len(src.pred)]
	e.cand = slices.Grow(e.cand[:0], len(src.pred))[:len(src.pred)]
}

// accept commits the pending proposal's deltas into the current slice
// (the grid and postings already hold the swapped state).
func (e *incEval) accept() {
	for _, id := range e.affected {
		e.pred[id] = e.cand[id]
	}
}

// reject rolls the candidate mirror back to the current predictions and
// undoes the pending swap.
func (e *incEval) reject() {
	for _, id := range e.affected {
		e.cand[id] = e.pred[id]
	}
	e.swap(e.pendHA, e.pendSA, e.pendHB, e.pendSB)
}

// walk is one annealing trajectory over a workspace's engine. runRestart
// and the exchange phase drive it; they differ only in how they draw a
// proposal's geometry.
type walk struct {
	tally
	e                 *incEval
	best              *bestState
	sign              float64
	curObj, curEnergy float64
}

// begin starts a walk from the cells already in ws.e.grid, predicting
// the apps in ws.stale (see incEval.start).
func (w *walk) begin(ws *workspace, p *problem, sign float64) error {
	w.e, w.best, w.sign = &ws.e, &ws.best, sign
	if err := w.e.start(p, ws.stale); err != nil {
		return err
	}
	w.evals++
	w.curObj = w.e.objective(w.e.pred)
	w.curEnergy = w.e.energy(w.curObj, w.e.pred)
	w.consider()
	return nil
}

// consider records the engine's current state as the new best if it
// beats the incumbent.
func (w *walk) consider() {
	e, b := w.e, w.best
	ok := e.qosOK()
	if b.have && !betterSnap(e.qos != nil, w.sign, bestSnap{obj: w.curObj, qosOK: ok}, b.snap()) {
		return
	}
	b.have, b.obj, b.qosOK = true, w.curObj, ok
	b.cells = append(b.cells[:0], e.grid.Cells()...)
	b.pred = append(b.pred[:0], e.pred...)
}

// accepts draws the Metropolis verdict on a candidate energy and counts
// the proposal; r is consumed only for an uphill move.
func (w *walk) accepts(candEnergy, temp float64, r *sim.RNG) bool {
	w.proposals++
	delta := w.sign * (candEnergy - w.curEnergy)
	ok := delta <= 0
	if !ok {
		ok = r.Float64() < math.Exp(-delta/math.Max(temp, 1e-9))
	}
	if ok {
		w.accepted++
	} else {
		w.rejected++
	}
	return ok
}

// moved makes an accepted candidate, already committed to the engine,
// the walk's current state.
func (w *walk) moved(obj, energy float64) {
	w.curObj, w.curEnergy = obj, energy
	w.consider()
}

// try runs one swap proposal end to end: skip when both slots hold the
// same content, count a rule-breaking swap invalid, otherwise evaluate
// it and accept or undo it. It reports whether the swap was accepted
// (w.e.affected then lists the apps it re-predicted).
func (w *walk) try(ha, sa, hb, sb int, temp float64, r *sim.RNG) (bool, error) {
	e := w.e
	if e.grid.Cell(ha, sa) == e.grid.Cell(hb, sb) {
		return false, nil
	}
	valid, err := e.propose(ha, sa, hb, sb)
	if err != nil {
		return false, err
	}
	if !valid {
		w.invalid++
		return false, nil
	}
	w.evals++
	obj := e.objective(e.cand)
	energy := e.energy(obj, e.cand)
	if !w.accepts(energy, temp, r) {
		e.reject()
		return false, nil
	}
	e.accept()
	w.moved(obj, energy)
	return true, nil
}

// finish closes the walk at its final temperature and reads the cache
// statistics into the tally.
func (w *walk) finish(temp float64) {
	w.finalTemp = temp
	w.hits, w.misses = w.e.cache.Stats()
	w.chits, w.cmisses = w.e.cache.CombineStats()
}

// runRestart executes one independent annealing restart of p on the
// stream seeded by seed into o, and returns its workspace to the pool as
// soon as it ends, so a fan-out holds no more workspaces than it has
// workers.
func runRestart(p *problem, cfg *Config, sign float64, seed int64, o *restartOutcome) {
	span := cfg.Tracer.StartSpan("placement.restart")
	defer span.End()
	ws := acquireWorkspace()
	defer releaseWorkspace(ws)
	o.tally, o.err = walkRestart(ws, p, cfg, sign, seed)
	o.best.copyFrom(&ws.best)
}

// walkRestart is one restart's trajectory on ws, which holds its best
// state when it returns.
func walkRestart(ws *workspace, p *problem, cfg *Config, sign float64, seed int64) (tally, error) {
	r := &ws.draw
	r.Reset(seed)
	ws.aux.Reset(r.Stream("init").Seed())
	if err := p.sample(ws, &ws.aux); err != nil {
		return tally{}, err
	}
	var w walk
	if err := w.begin(ws, p, sign); err != nil {
		return tally{}, err
	}
	temp, cool := initTemp, coolRate(cfg.Iterations)
	slots := p.hosts * p.slots
	for it := 0; it < cfg.Iterations; it++ {
		temp *= cool
		// Propose: swap two slots holding different contents.
		a := r.Intn(slots)
		b := r.Intn(slots)
		ha, sa := a/p.slots, a%p.slots
		hb, sb := b/p.slots, b%p.slots
		// Proposals touching a crashed host are invalid outright; the
		// guard is draw-free, so the fault-free trajectory is untouched.
		if p.down != nil && (p.down[ha] || p.down[hb]) {
			w.invalid++
			continue
		}
		if _, err := w.try(ha, sa, hb, sb, temp, r); err != nil {
			return tally{}, err
		}
	}
	w.finish(temp)
	return w.tally, nil
}

// annealJob is one problem whose restarts a fan-out runs: restart i on
// rng.StreamN("restart", i), its outcome landing in outs[i].
type annealJob struct {
	p    *problem
	cfg  *Config
	sign float64
	rng  *sim.RNG // NewRNG(seed).Stream("placement")
	outs []restartOutcome
}

// newAnnealJob is the job of cfg.Restarts restarts of p seeded by seed,
// landing in outs.
func newAnnealJob(p *problem, cfg *Config, sign float64, seed int64, outs *outcomes) annealJob {
	return annealJob{p: p, cfg: cfg, sign: sign, rng: sim.NewRNG(seed).Stream("placement"), outs: outs.s}
}

// annealAll runs every restart of every job on one fan-out of workers
// goroutines. Each restart is a pure function of its job and index, so
// the outcomes do not depend on workers or on which worker ran what.
func annealAll(jobs []annealJob, workers int) {
	n := 0
	for i := range jobs {
		n += len(jobs[i].outs)
	}
	sim.FanOut(n, workers, func(k int) {
		j := 0
		for k >= len(jobs[j].outs) {
			k -= len(jobs[j].outs)
			j++
		}
		jb := &jobs[j]
		runRestart(jb.p, jb.cfg, jb.sign, jb.rng.StreamN("restart", k).Seed(), &jb.outs[k])
	})
}

// winner returns the index of the winning restart among outs — ties keep
// the earlier restart, as a serial sweep's strict-improvement rule does —
// or the first restart error.
func winner(outs []restartOutcome, qos bool, sign float64) (int, error) {
	win := 0
	for i := range outs {
		if outs[i].err != nil {
			return -1, outs[i].err
		}
		if i > 0 && betterSnap(qos, sign, outs[i].best.snap(), outs[win].best.snap()) {
			win = i
		}
	}
	return win, nil
}

// anneal runs cfg.Restarts independent restarts of p, one goroutine
// each, and returns their outcomes in restart order plus the index of
// the winner. The caller must releaseOutcomes the outcomes, error or not.
func anneal(p *problem, cfg *Config, sign float64, seed int64) (*outcomes, int, error) {
	outs := acquireOutcomes(cfg.Restarts)
	annealAll([]annealJob{newAnnealJob(p, cfg, sign, seed, outs)}, cfg.Restarts)
	win, err := winner(outs.s, p.qos != nil, sign)
	return outs, win, err
}

// materialize builds the public Result — the string Placement and the
// prediction map — from a best state over the request's own index. It
// is the one place a search's state crosses back to the boundary format.
func (b *bound) materialize(best *bestState) (Result, error) {
	if !best.have {
		return Result{}, errors.New("placement: no best state recorded")
	}
	p, err := cluster.PlacementFromCells(b.hosts, b.slots, b.appsLimit, best.cells, b.ix.Apps)
	if err != nil {
		return Result{}, err
	}
	pred := make(map[string]float64, len(b.ix.Apps))
	for i, a := range b.ix.Apps {
		pred[a] = best.pred[i]
	}
	return Result{Placement: p, Predicted: pred, Objective: best.obj, QoSSatisfied: best.qosOK}, nil
}
