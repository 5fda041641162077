package measure

import (
	"errors"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Batch collects independent measurement requests and executes their
// bodies over a bounded worker pool. Each submission is planned when it is
// made, on the caller's goroutine and in submission order: validation, the
// fault layer's FailureHook, the telemetry run counter and the
// content-cache lookup. A body is a pure function of the environment and
// its layout — background draws included — so the workers' completion
// order cannot affect any value. Run then publishes every result to the
// content and solo caches in submission order and resolves the handles.
// One batch therefore computes exactly what the same submissions compute
// split over several batches, or through the serial methods, in any order.
// A batch is built and Run on one goroutine; handles are read after Run
// returns.
//
// A plan failure mirrors a serial loop's early return: the first failing
// submission poisons the batch, later submissions consume nothing (no
// counters, no failure-hook draws) and their handles report the poisoning
// error. Already-planned jobs still execute.
type Batch struct {
	env  *Env
	jobs []*job
	fins []func()
	// solo maps a baseline to the job measuring it, so a batch measures
	// each baseline once, as a later batch finds it in the solo cache.
	solo map[soloKey]*job
	// keyed maps a content-cache key to the first job planned for it, so
	// duplicate requests within one batch alias deterministically onto
	// the earliest submission instead of racing for the cache.
	keyed map[cacheKey]*job

	planErr    error
	planErrIdx int
	nsub       int
	ran        bool
}

// NewBatch starts an empty measurement batch on the environment.
func (e *Env) NewBatch() *Batch {
	return &Batch{env: e, solo: map[soloKey]*job{}, keyed: map[cacheKey]*job{}}
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
	job *job
}

// value returns a planned baseline once the batch has run.
func (s soloRef) value() (float64, error) {
	if s.job == nil {
		return s.val, nil
	}
	return first(s.job.result())
}

// submit numbers one submission and, unless an earlier one poisoned the
// batch, plans it. It returns what the submission's handle reports until
// Run: the poisoning or plan error, or errBatchNotRun. A plan error
// poisons every later submission.
func (b *Batch) submit(plan func(idx int) error) error {
	idx := b.nsub
	b.nsub++
	if b.planErr != nil {
		return b.planErr
	}
	if err := plan(idx); err != nil {
		b.planErr, b.planErrIdx = err, idx
		return err
	}
	return errBatchNotRun
}

// add makes a job through one of the Env's plan steps and registers it,
// aliasing it onto an earlier job of the batch with the same content key.
func (b *Batch) add(idx int, plan func(*job) error) (*job, error) {
	j := &job{idx: idx}
	if err := plan(j); err != nil {
		return nil, err
	}
	if !j.done && j.key != (cacheKey{}) {
		if prev, ok := b.keyed[j.key]; ok {
			j.aliasOf, j.done = prev, true
			b.env.Cache.creditHit()
			b.env.count(metricCacheHits)
		} else {
			b.keyed[j.key] = j
		}
	}
	b.jobs = append(b.jobs, j)
	return j, nil
}

// planSolo plans the solo baseline of (w, nodes) as Env.Solo does: a
// known baseline consumes nothing, nor does one already pending in this
// batch; otherwise it is a zero-pressure bubble measurement.
func (b *Batch) planSolo(w *workloadRef, nodes, idx int) (soloRef, error) {
	key := soloKey{w.key, nodes}
	if t, ok := b.env.soloValue(key); ok {
		return soloRef{val: t}, nil
	}
	if j, ok := b.solo[key]; ok {
		return soloRef{job: j}, nil
	}
	j, err := b.add(idx, func(j *job) error {
		j.solo = true
		return b.env.planBubbles(j, w, make([]float64, nodes))
	})
	if err != nil {
		return soloRef{}, err
	}
	b.solo[key] = j
	return soloRef{job: j}, nil
}

// scalar submits a one-application measurement planned by plan.
func (b *Batch) scalar(plan func(*job) error) *Value {
	h := new(Value)
	h.err = b.submit(func(idx int) error {
		j, err := b.add(idx, plan)
		if err == nil {
			b.fins = append(b.fins, func() { h.v, h.err = first(j.result()) })
		}
		return err
	})
	return h
}

// bubbles submits a RunWithBubbles measurement.
func (b *Batch) bubbles(w workloads.Workload, pressures []float64) *Value {
	ref := b.env.intern(w)
	return b.scalar(func(j *job) error {
		// Callers may reuse the slice.
		return b.env.planBubbles(j, ref, append([]float64(nil), pressures...))
	})
}

// CoRunner submits a measurement of w across nodes with a unit of co —
// its slave-generation profile; its master, if any, lives elsewhere — on
// each node listed in coNodes.
func (b *Batch) CoRunner(w, co workloads.Workload, nodes int, coNodes []int) *Value {
	wr, cr := b.env.intern(w), b.env.intern(co)
	return b.scalar(func(j *job) error { return b.env.planCoRunner(j, wr, cr, nodes, coNodes) })
}

// Normalized submits a NormalizedWithBubbles measurement: the interfered
// run plus (at most once per batch) its solo baseline.
func (b *Batch) Normalized(w workloads.Workload, pressures []float64) *Value {
	h := new(Value)
	ref := b.env.intern(w)
	h.err = b.submit(func(idx int) error {
		jt, err := b.add(idx, func(j *job) error {
			return b.env.planBubbles(j, ref, append([]float64(nil), pressures...))
		})
		if err != nil {
			return err
		}
		solo, err := b.planSolo(ref, len(pressures), idx)
		if err != nil {
			return err
		}
		b.fins = append(b.fins, func() { h.v, h.err = normalized(jt, solo) })
		return nil
	})
	return h
}

// normalized resolves a Normalized submission once the batch has run.
func normalized(jt *job, solo soloRef) (float64, error) {
	t, err := first(jt.result())
	if err != nil {
		return 0, err
	}
	s, err := solo.value()
	if err != nil {
		return 0, err
	}
	return normalize(t, s, jt.w.w.Name)
}

// Group submits a co-run of apps across nodes, each node holding one unit
// of every application, with the members' solo baselines.
func (b *Batch) Group(apps []workloads.Workload, nodes int) *GroupResult {
	h := new(GroupResult)
	h.err = b.submit(func(idx int) error {
		refs := b.env.internAll(apps)
		jg, err := b.add(idx, func(j *job) error { return b.env.planGroup(j, refs, nodes) })
		if err != nil {
			return err
		}
		solos := make([]soloRef, len(refs))
		for i, r := range refs {
			if solos[i], err = b.planSolo(r, nodes, idx); err != nil {
				return err
			}
		}
		b.fins = append(b.fins, func() { h.outs, h.err = outcomes(jg, solos) })
		return nil
	})
	return h
}

// outcomes combines a co-run's mean times with its members' baselines
// once the batch has run.
func outcomes(jg *job, solos []soloRef) ([]AppOutcome, error) {
	means, err := jg.result()
	if err != nil {
		return nil, err
	}
	outs := make([]AppOutcome, len(solos))
	for i, s := range solos {
		solo, err := s.value()
		if err != nil {
			return nil, err
		}
		outs[i] = AppOutcome{Time: means[i], Solo: solo, Normalized: means[i] / solo, Nodes: jg.nodes}
	}
	return outs, nil
}

// PlacementResult is the handle to one placement co-run.
type PlacementResult struct {
	outs map[string]AppOutcome
	err  error
}

// Outcomes returns the per-application outcomes after Batch.Run.
func (p *PlacementResult) Outcomes() (map[string]AppOutcome, error) { return p.outs, p.err }

// Placement submits a co-run of every application of placement p sharing
// the cluster, with each application's solo baseline across as many nodes
// as it has units (see Env.RunPlacement). reg maps application names to
// workload definitions. As in Group, a baseline already pending in the
// batch is measured once.
func (b *Batch) Placement(p *cluster.Placement, reg map[string]workloads.Workload) *PlacementResult {
	h := new(PlacementResult)
	h.err = b.submit(func(idx int) error {
		var apps []string
		jp, err := b.add(idx, func(j *job) (err error) {
			apps, err = b.env.planPlacement(j, p, reg)
			return err
		})
		if err != nil {
			return err
		}
		solos := make([]soloRef, len(apps))
		for a, r := range jp.group {
			lo, hi := jp.unitsOf(a)
			if solos[a], err = b.planSolo(r, hi-lo, idx); err != nil {
				return err
			}
		}
		b.fins = append(b.fins, func() { h.outs, h.err = b.env.placementOutcomes(jp, apps, solos) })
		return nil
	})
	return h
}

// Pair submits a co-run of a and c across nodes, each node holding one
// unit of each (Section 4.3's validation setup).
func (b *Batch) Pair(a, c workloads.Workload, nodes int) *PairValue {
	g := b.Group([]workloads.Workload{a, c}, nodes)
	h := &PairValue{err: g.err}
	b.fins = append(b.fins, func() {
		outs, err := g.Outcomes()
		if err != nil {
			h.err = err
			return
		}
		h.res = PairResult{
			timeA: outs[0].Time, timeB: outs[1].Time,
			NormalizedA: outs[0].Normalized, normalizedB: outs[1].Normalized,
		}
		h.err = nil
	})
	return h
}

// Run executes every planned job's body over the worker pool, publishes
// the results in submission order, resolves all handles, and returns the
// first error in submission order (where a serial loop would have
// stopped). It must be called exactly once, from the goroutine that built
// the batch.
func (b *Batch) Run() error {
	if b.ran {
		return errors.New("measure: batch already run")
	}
	b.ran = true
	e := b.env
	if e.Telemetry != nil {
		e.Telemetry.Counter(metricBatchRuns).Inc()
		e.Telemetry.Counter(MetricBatchJobs).Add(uint64(len(b.jobs)))
	}

	todo := make([]*job, 0, len(b.jobs))
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
	sim.FanOut(len(todo), workers, func(i int) { e.exec(todo[i]) })

	// First write wins in both caches, so the earliest submission defines
	// an entry, as it would in a batch of its own.
	for _, j := range b.jobs {
		e.publish(j)
	}
	for _, f := range b.fins {
		f()
	}
	for _, j := range b.jobs {
		if j.err != nil {
			if b.planErr != nil && b.planErrIdx < j.idx {
				return b.planErr
			}
			return j.err
		}
	}
	return b.planErr
}
