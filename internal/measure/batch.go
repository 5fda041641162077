package measure

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// Batch collects independent measurement requests and executes them over a
// bounded worker pool, bit-identically to issuing the same calls serially
// in submission order. The trick that makes that possible is splitting
// every measurement into a sequential *plan* step and a parallel *body*:
//
//   - Planning happens at submission time on the caller's goroutine, in
//     submission order: validation, the fault layer's FailureHook, the
//     telemetry run counters, and — crucially — the nonce draw from
//     Env.nextNonce. Background interference derives its RNG stream from
//     the nonce, so pre-assigning nonces in submission order pins every
//     measurement's randomness before any worker starts.
//   - The body (contention solves + application runs) is a pure function
//     of the environment configuration, the request, and the pre-assigned
//     nonce, so the workers' completion order cannot affect any value.
//
// Results merge back in submission order: content-cache and solo-cache
// publication, then the per-handle finalizers. A batch is built and Run on
// one goroutine; handles are read after Run returns.
//
// Plan-time failures mirror the serial early-return: the first failing
// submission poisons the batch, later submissions consume nothing (no
// nonce, no counters, no failure-hook draws) and their handles report the
// poisoning error. Already-planned jobs still execute, exactly as they
// would already have run serially.
type Batch struct {
	env  *Env
	jobs []*batchJob
	fins []func()
	// solo maps a solo-cache key to the in-flight job measuring it, so a
	// batch measures each baseline once (mirroring Env.soloCache hits).
	solo map[soloKey]*batchJob
	// keyed maps a content-cache key to the first job planned for it, so
	// duplicate requests within one batch alias deterministically onto
	// the earliest submission instead of racing for the cache.
	keyed map[cacheKey]*batchJob

	planErr    error
	planErrIdx int
	nsub       int
	ran        bool
}

// NewBatch starts an empty measurement batch on the environment.
func (e *Env) NewBatch() *Batch {
	return &Batch{env: e, solo: map[soloKey]*batchJob{}, keyed: map[cacheKey]*batchJob{}}
}

type jobKind int

const (
	jobBubbles jobKind = iota
	jobCoRunner
	jobGroup
)

// batchJob is one planned measurement. It names its workloads by the
// Env's interned references, so a job costs the same few words whatever
// the size of the definitions it measures.
type batchJob struct {
	idx       int
	kind      jobKind
	w, co     *workloadRef
	group     []*workloadRef
	pressures []float64
	nodes     int
	coSet     map[int]bool
	nonce     int

	key     cacheKey  // content-cache key; zero when caching is disabled
	solo    bool      // this job doubles as the solo baseline of (w, nodes)
	aliasOf *batchJob // earlier in-batch job with the same content key
	done    bool      // resolved at plan time (cache hit or alias)

	vals []float64
	err  error
}

// errBatchNotRun is what handles report before Batch.Run has been called.
var errBatchNotRun = errors.New("measure: batch not run")

// Value is the handle to one scalar batch result.
type Value struct {
	v   float64
	err error
}

// Result returns the measurement after Batch.Run.
func (v *Value) Result() (float64, error) { return v.v, v.err }

// GroupResult is the handle to one group co-run.
type GroupResult struct {
	outs []AppOutcome
	err  error
}

// Outcomes returns the per-application outcomes after Batch.Run.
func (g *GroupResult) Outcomes() ([]AppOutcome, error) { return g.outs, g.err }

// PairValue is the handle to one pairwise co-run.
type PairValue struct {
	res PairResult
	err error
}

// Result returns the pair outcome after Batch.Run.
func (p *PairValue) Result() (PairResult, error) { return p.res, p.err }

// soloRef is a planned solo baseline: either already known (val) or
// pending as a batch job.
type soloRef struct {
	val float64
	job *batchJob
}

// failAt records the first plan failure and its submission position.
func (b *Batch) failAt(err error, idx int) {
	if b.planErr == nil {
		b.planErr, b.planErrIdx = err, idx
	}
}

// addJob registers a planned job, resolving it immediately on a content
// cache hit or deduplicating it onto an identical in-batch twin.
func (b *Batch) addJob(j *batchJob) {
	e := b.env
	if j.key != (cacheKey{}) {
		if v, ok := e.Cache.get(j.key); ok {
			j.vals, j.done = v, true
			e.count(MetricCacheHits)
		} else if prev, ok := b.keyed[j.key]; ok {
			j.aliasOf, j.done = prev, true
			e.Cache.creditHit()
			e.count(MetricCacheHits)
		} else {
			b.keyed[j.key] = j
			e.count(MetricCacheMisses)
		}
	}
	b.jobs = append(b.jobs, j)
}

// planBubbles mirrors the serial RunWithBubbles prefix — validation,
// failure hook, run counter, nonce — and defers the body to Run.
func (b *Batch) planBubbles(w workloads.Workload, pressures []float64, idx int) (*batchJob, error) {
	e := b.env
	if err := e.checkBubbles(pressures); err != nil {
		return nil, err
	}
	if err := e.failure("bubbles", w.Name); err != nil {
		return nil, err
	}
	e.count(MetricMeasureRuns)
	nonce := e.nextNonce()
	ref := e.intern(w)
	pressures = append([]float64(nil), pressures...) // callers may reuse the slice
	j := &batchJob{
		idx: idx, kind: jobBubbles, w: ref, pressures: pressures,
		nonce: nonce, key: e.bubblesCacheKey(ref, pressures),
	}
	b.addJob(j)
	return j, nil
}

// planSolo plans the solo baseline for (w, nodes), mirroring Env.Solo: a
// solo-cache hit consumes nothing, as does a baseline already pending in
// this batch; otherwise it is a zero-pressure bubble measurement.
func (b *Batch) planSolo(w workloads.Workload, nodes, idx int) (soloRef, error) {
	e := b.env
	key := soloKey{w.Name, nodes}
	e.mu.Lock()
	t, ok := e.soloCache[key]
	e.mu.Unlock()
	if ok {
		return soloRef{val: t}, nil
	}
	if j, ok := b.solo[key]; ok {
		return soloRef{job: j}, nil
	}
	j, err := b.planBubbles(w, make([]float64, nodes), idx)
	if err != nil {
		return soloRef{}, err
	}
	j.solo = true
	b.solo[key] = j
	return soloRef{job: j}, nil
}

// planGroup mirrors the serial RunGroup prefix.
func (b *Batch) planGroup(apps []workloads.Workload, nodes, idx int) (*batchJob, error) {
	e := b.env
	if err := e.checkGroup(apps, nodes); err != nil {
		return nil, err
	}
	if err := e.failure("group", ""); err != nil {
		return nil, err
	}
	e.count(MetricMeasureRuns)
	nonce := e.nextNonce()
	refs := e.internAll(apps)
	j := &batchJob{
		idx: idx, kind: jobGroup, group: refs, nodes: nodes,
		nonce: nonce, key: e.groupCacheKey(refs, nodes),
	}
	b.addJob(j)
	return j, nil
}

// resolved returns a job's measurement, following an in-batch alias.
func resolved(j *batchJob) ([]float64, error) {
	if j.aliasOf != nil {
		j = j.aliasOf
	}
	return j.vals, j.err
}

// resolveSolo returns a planned baseline's value.
func resolveSolo(s soloRef) (float64, error) {
	if s.job == nil {
		return s.val, nil
	}
	v, err := resolved(s.job)
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

// Bubbles submits a RunWithBubbles-equivalent measurement.
func (b *Batch) Bubbles(w workloads.Workload, pressures []float64) *Value {
	h := &Value{err: errBatchNotRun}
	idx := b.nsub
	b.nsub++
	if b.planErr != nil {
		h.err = b.planErr
		return h
	}
	j, err := b.planBubbles(w, pressures, idx)
	if err != nil {
		b.failAt(err, idx)
		h.err = err
		return h
	}
	b.fins = append(b.fins, func() {
		v, err := resolved(j)
		if err != nil {
			h.err = err
			return
		}
		h.v, h.err = v[0], nil
	})
	return h
}

// Normalized submits a NormalizedWithBubbles-equivalent measurement: the
// interfered run plus (at most once per batch) its solo baseline.
func (b *Batch) Normalized(w workloads.Workload, pressures []float64) *Value {
	h := &Value{err: errBatchNotRun}
	idx := b.nsub
	b.nsub++
	if b.planErr != nil {
		h.err = b.planErr
		return h
	}
	jt, err := b.planBubbles(w, pressures, idx)
	if err != nil {
		b.failAt(err, idx)
		h.err = err
		return h
	}
	solo, err := b.planSolo(w, len(pressures), idx)
	if err != nil {
		b.failAt(err, idx)
		h.err = err
		return h
	}
	b.fins = append(b.fins, func() {
		v, err := resolved(jt)
		if err != nil {
			h.err = err
			return
		}
		s, err := resolveSolo(solo)
		if err != nil {
			h.err = err
			return
		}
		if s <= 0 {
			h.err = fmt.Errorf("measure: non-positive solo time for %s", jt.w.w.Name)
			return
		}
		h.v, h.err = v[0]/s, nil
	})
	return h
}

// CoRunner submits a RunWithCoRunner-equivalent measurement.
func (b *Batch) CoRunner(w, co workloads.Workload, nodes int, coNodes []int) *Value {
	h := &Value{err: errBatchNotRun}
	idx := b.nsub
	b.nsub++
	if b.planErr != nil {
		h.err = b.planErr
		return h
	}
	e := b.env
	coSet, err := e.checkCoRunner(nodes, coNodes)
	if err != nil {
		b.failAt(err, idx)
		h.err = err
		return h
	}
	if err := e.failure("co-runner", w.Name); err != nil {
		b.failAt(err, idx)
		h.err = err
		return h
	}
	nonce := e.nextNonce()
	wr, cr := e.intern(w), e.intern(co)
	j := &batchJob{
		idx: idx, kind: jobCoRunner, w: wr, co: cr, nodes: nodes, coSet: coSet,
		nonce: nonce, key: e.coRunnerCacheKey(wr, cr, nodes, coSet),
	}
	b.addJob(j)
	b.fins = append(b.fins, func() {
		v, err := resolved(j)
		if err != nil {
			h.err = err
			return
		}
		h.v, h.err = v[0], nil
	})
	return h
}

// Group submits a RunGroup-equivalent co-run of apps across nodes.
func (b *Batch) Group(apps []workloads.Workload, nodes int) *GroupResult {
	h := &GroupResult{err: errBatchNotRun}
	idx := b.nsub
	b.nsub++
	if b.planErr != nil {
		h.err = b.planErr
		return h
	}
	jg, err := b.planGroup(apps, nodes, idx)
	if err != nil {
		b.failAt(err, idx)
		h.err = err
		return h
	}
	solos := make([]soloRef, len(apps))
	for i, a := range apps {
		s, err := b.planSolo(a, nodes, idx)
		if err != nil {
			b.failAt(err, idx)
			h.err = err
			return h
		}
		solos[i] = s
	}
	b.fins = append(b.fins, func() {
		means, err := resolved(jg)
		if err != nil {
			h.err = err
			return
		}
		outs := make([]AppOutcome, len(jg.group))
		for i := range jg.group {
			solo, err := resolveSolo(solos[i])
			if err != nil {
				h.err = err
				return
			}
			outs[i] = AppOutcome{Time: means[i], Solo: solo, Normalized: means[i] / solo, Nodes: nodes}
		}
		h.outs, h.err = outs, nil
	})
	return h
}

// Pair submits a RunPair-equivalent co-run of a and c.
func (b *Batch) Pair(a, c workloads.Workload, nodes int) *PairValue {
	h := &PairValue{err: errBatchNotRun}
	g := b.Group([]workloads.Workload{a, c}, nodes)
	b.fins = append(b.fins, func() {
		outs, err := g.Outcomes()
		if err != nil {
			h.err = err
			return
		}
		h.res = PairResult{
			TimeA: outs[0].Time, TimeB: outs[1].Time,
			NormalizedA: outs[0].Normalized, NormalizedB: outs[1].Normalized,
		}
		h.err = nil
	})
	return h
}

// execJob runs one job's measurement body with its pre-assigned nonce.
func (e *Env) execJob(j *batchJob) {
	switch j.kind {
	case jobBubbles:
		v, err := e.bubblesBody(j.w, j.pressures, j.nonce)
		j.vals, j.err = []float64{v}, err
	case jobCoRunner:
		v, err := e.coRunnerBody(j.w, j.co, j.nodes, j.coSet, j.nonce)
		j.vals, j.err = []float64{v}, err
	case jobGroup:
		j.vals, j.err = e.groupBody(j.group, j.nodes, j.nonce)
	}
}

// Run executes every planned job over the worker pool, publishes results
// to the caches in submission order, resolves all handles, and returns the
// first error in submission order (mirroring where a serial loop would
// have stopped). It must be called exactly once, from the goroutine that
// built the batch.
func (b *Batch) Run() error {
	if b.ran {
		return errors.New("measure: batch already run")
	}
	b.ran = true
	e := b.env
	if e.Telemetry != nil {
		e.Telemetry.Counter(MetricBatchRuns).Inc()
		e.Telemetry.Counter(MetricBatchJobs).Add(uint64(len(b.jobs)))
	}

	todo := make([]*batchJob, 0, len(b.jobs))
	for _, j := range b.jobs {
		if !j.done {
			todo = append(todo, j)
		}
	}
	workers := e.workerCount()
	if workers > len(todo) {
		workers = len(todo)
	}
	if e.Telemetry != nil && workers > 0 {
		e.Telemetry.Gauge(MetricBatchWorkers).Set(float64(workers))
	}
	sim.FanOut(len(todo), workers, func(i int) { e.execJob(todo[i]) })

	// Merge in submission order: cache publication first (first write
	// wins, so the earliest submission defines an entry, exactly like
	// serial execution), then the handle finalizers.
	for _, j := range b.jobs {
		if j.done || j.err != nil {
			continue
		}
		e.cachePut(j.key, j.vals)
		if j.solo {
			key := soloKey{j.w.w.Name, len(j.pressures)}
			e.mu.Lock()
			if _, ok := e.soloCache[key]; !ok {
				e.soloCache[key] = j.vals[0]
			}
			e.mu.Unlock()
		}
	}
	for _, f := range b.fins {
		f()
	}

	var firstErr error
	firstIdx := -1
	for _, j := range b.jobs {
		if j.err != nil {
			firstErr, firstIdx = j.err, j.idx
			break
		}
	}
	if b.planErr != nil && (firstIdx == -1 || b.planErrIdx < firstIdx) {
		return b.planErr
	}
	return firstErr
}
