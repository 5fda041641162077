// Package app contains the distributed parallel application engines that
// run on the discrete-event kernel. The paper's central observation is that
// an application's *synchronization pattern* decides how local interference
// propagates to its end-to-end latency (Section 3.2); the engines here make
// that pattern an explicit, executable structure:
//
//   - BSP: bulk-synchronous MPI-style iteration — per-iteration barrier and
//     allreduce/allgather collectives make the slowest node gate everyone
//     (the paper's "high propagation" class: M.milc, M.lesl, M.lmps, ...).
//   - Wavefront: per-iteration work serialized across nodes with only
//     point-to-point hand-offs — each node's slowdown adds proportionally
//     (the paper's "proportional propagation" class: M.Gems).
//   - TaskPool: many fine-grained tasks scheduled dynamically onto free
//     slots with speculative re-execution — aggregate throughput of all
//     nodes matters, so isolated slow nodes are absorbed (the paper's "low
//     propagation" class: H.KM, S.PR).
//   - Stages: coarse-wave stage execution with shuffles in between — a
//     middle ground where the worst nodes dominate stage tails (Spark).
//   - Independent: unsynchronized single-node batch instances (SPEC
//     CPU2006 co-runners of Section 5).
package app

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Engine selects the execution structure of a Spec.
type Engine int

// Engine kinds. See the package comment for the propagation class each
// pattern produces.
const (
	BSP Engine = iota
	Wavefront
	TaskPool
	Stages
	Independent
)

// String returns the engine name.
func (e Engine) String() string {
	switch e {
	case BSP:
		return "BSP"
	case Wavefront:
		return "Wavefront"
	case TaskPool:
		return "TaskPool"
	case Stages:
		return "Stages"
	case Independent:
		return "Independent"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Spec describes one distributed application's execution structure. Only
// the fields relevant to the chosen Engine are consulted.
type Spec struct {
	Name   string
	Engine Engine

	// Iterative engines (BSP, Wavefront).
	Iterations int     // outer iterations
	IterSec    float64 // per-node compute seconds per iteration, uninterfered
	NoiseSigma float64 // lognormal per-(node,iteration) compute jitter

	// BSP collectives, per iteration.
	ProcsPerNode    int     // MPI ranks per node (sizes the collectives)
	AllreduceBytes  float64 // payload reduced per iteration
	AllgatherBytes  float64 // payload gathered per iteration
	BarriersPerIter int     // extra barriers per iteration
	// SyncDrag scales how much interference anywhere stretches each
	// collective: interfered ranks reach the collective at more
	// dispersed times, lengthening the synchronization window in
	// proportion to the mean excess slowdown. This secondary term is
	// what makes lesser-pressure interfering nodes still cost a BSP
	// code something — the behaviour the paper's N+1 max policy models.
	SyncDrag float64

	// Task engines (TaskPool, Stages).
	NumStages     int     // map/reduce or Spark stage count
	TasksPerStage int     // tasks per stage
	TaskSec       float64 // base duration of one task
	SlotsPerNode  int     // concurrent tasks per node
	Speculative   bool    // Hadoop-style speculative re-execution
	// TaskSkewSigma is the lognormal sigma of per-task size variation
	// (data skew). Large skewed tasks landing on interfered nodes are
	// what makes Spark-style stages tail-dominated by the worst nodes.
	TaskSkewSigma float64
	// LocalityFrac is the fraction of tasks pinned to a home node (data
	// locality, HDFS/RDD partition placement). Pinned tasks cannot be
	// load-balanced away from an interfered node; only speculative
	// copies (which may run anywhere) mitigate them.
	LocalityFrac float64
	// ShuffleBytesPerNode is the all-to-all volume between stages.
	ShuffleBytesPerNode float64

	// Independent engine.
	BatchSec float64 // solo duration of one batch instance
}

// Validate reports whether the spec is runnable.
func (s Spec) Validate() error {
	if s.Name == "" {
		return errors.New("app: spec needs a name")
	}
	if s.NoiseSigma < 0 {
		return errors.New("app: negative noise sigma")
	}
	switch s.Engine {
	case BSP, Wavefront:
		if s.Iterations <= 0 || s.IterSec <= 0 {
			return fmt.Errorf("app %s: iterative engine needs Iterations and IterSec", s.Name)
		}
		if s.Engine == BSP && s.ProcsPerNode <= 0 {
			return fmt.Errorf("app %s: BSP needs ProcsPerNode", s.Name)
		}
		if s.AllreduceBytes < 0 || s.AllgatherBytes < 0 || s.BarriersPerIter < 0 {
			return fmt.Errorf("app %s: negative collective parameters", s.Name)
		}
		if s.SyncDrag < 0 {
			return fmt.Errorf("app %s: negative sync drag", s.Name)
		}
	case TaskPool, Stages:
		if s.NumStages <= 0 || s.TasksPerStage <= 0 || s.TaskSec <= 0 || s.SlotsPerNode <= 0 {
			return fmt.Errorf("app %s: task engine needs NumStages/TasksPerStage/TaskSec/SlotsPerNode", s.Name)
		}
		if s.ShuffleBytesPerNode < 0 {
			return fmt.Errorf("app %s: negative shuffle volume", s.Name)
		}
		if s.TaskSkewSigma < 0 {
			return fmt.Errorf("app %s: negative task skew sigma", s.Name)
		}
		if s.LocalityFrac < 0 || s.LocalityFrac > 1 {
			return fmt.Errorf("app %s: LocalityFrac %v outside [0,1]", s.Name, s.LocalityFrac)
		}
	case Independent:
		if s.BatchSec <= 0 {
			return fmt.Errorf("app %s: Independent needs BatchSec", s.Name)
		}
	default:
		return fmt.Errorf("app %s: unknown engine %v", s.Name, s.Engine)
	}
	return nil
}

// Params carries the per-run environment: the per-node slowdown factors the
// contention model produced for this application's processes, the network,
// and a random stream for compute jitter.
type Params struct {
	Slowdown []float64 // one entry per node the app occupies; >= 1 each
	Net      netsim.Network
	RNG      *sim.RNG
	// Factors, when non-nil, is a table of RNG's jitter shared by every run
	// on that stream: the run reads its factors there instead of drawing
	// them, with bit-identical results. Nil gives the run a private table.
	Factors *Factors
	// Telemetry, when non-nil, receives the run's event counts under the
	// sim.Engine.Instrument metric names (the task engines flush their
	// event engine's; BSP and Wavefront add what their event schedule
	// would have produced) and per-engine run counters and
	// simulated-makespan histograms. Nil costs nothing, and attaching a
	// registry costs a few counter updates per run, none per event.
	Telemetry *telemetry.Registry
}

// Metric names recorded by Run when Params.Telemetry is set; both carry an
// engine label.
const (
	MetricAppRuns       = "app_runs_total"
	MetricAppRunSeconds = "app_run_seconds"
)

// appRunBuckets cover simulated makespans from 1 s to ~65k s.
var appRunBuckets = telemetry.ExpBuckets(1, 4, 9)

// runMetricNames holds each engine's labelled run-metric names, rendered
// once so that recording a run formats nothing.
var runMetricNames = func() (names [Independent + 1]struct{ runs, seconds string }) {
	for e := range names {
		eng := Engine(e).String()
		names[e].runs = telemetry.Label(MetricAppRuns, "engine", eng)
		names[e].seconds = telemetry.Label(MetricAppRunSeconds, "engine", eng)
	}
	return names
}()

// enginePool recycles the task engines' event engines across runs, and
// engineHW remembers the deepest event queue any run has needed so reused
// engines start pre-sized and never regrow their heap mid-run. A reset
// engine is bit-identical to a fresh one (sim.Engine.Reset), so pooling
// does not affect results; the pool is safe for the measurement layer's
// concurrent batch workers.
var (
	enginePool = sync.Pool{New: func() any { return sim.NewEngine() }}
	engineHW   atomic.Int64
)

// engineFor builds the run's event engine, instrumented when requested.
func engineFor(p Params) *sim.Engine {
	eng := enginePool.Get().(*sim.Engine)
	eng.Reset(int(engineHW.Load()))
	if p.Telemetry != nil {
		eng.Instrument(p.Telemetry)
	}
	return eng
}

// releaseEngine returns an engine to the pool, folding its queue
// high-water mark into the pre-size hint for future runs.
func releaseEngine(eng *sim.Engine) {
	hw := int64(eng.QueueHighWater())
	for {
		cur := engineHW.Load()
		if hw <= cur || engineHW.CompareAndSwap(cur, hw) {
			break
		}
	}
	eng.Instrument(nil)
	enginePool.Put(eng)
}

// record logs a finished run's simulated makespan.
func (s Spec) record(p Params, makespan float64) {
	if p.Telemetry == nil {
		return
	}
	names := &runMetricNames[s.Engine]
	p.Telemetry.Counter(names.runs).Inc()
	p.Telemetry.Histogram(names.seconds, appRunBuckets).Observe(makespan)
}

// recordEvents adds a closed-form run's event counts to an instrumented
// run's registry: the events its engine schedule would have scheduled and
// fired (each one fires), and that schedule's queue high-water mark.
func (p Params) recordEvents(events uint64, highWater int) {
	if p.Telemetry == nil {
		return
	}
	p.Telemetry.Counter(sim.MetricEventsScheduled).Add(events)
	p.Telemetry.Counter(sim.MetricEventsFired).Add(events)
	p.Telemetry.Gauge(sim.MetricQueueHighWater).SetMax(float64(highWater))
}

func (p Params) validate() error {
	if len(p.Slowdown) == 0 {
		return errors.New("app: no nodes (empty slowdown vector)")
	}
	for i, sd := range p.Slowdown {
		if sd < 1 || math.IsNaN(sd) || math.IsInf(sd, 0) {
			return fmt.Errorf("app: slowdown[%d] = %v invalid (must be >= 1, finite)", i, sd)
		}
	}
	if err := p.Net.Validate(); err != nil {
		return err
	}
	if p.RNG == nil {
		return errors.New("app: nil RNG")
	}
	return nil
}

// Run executes the application under the given environment and returns its
// makespan in seconds.
func (s Spec) Run(p Params) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if err := p.validate(); err != nil {
		return 0, err
	}
	want, step := s.nodeDraws(len(p.Slowdown))
	j, err := s.openJitter(p, want, step)
	if err != nil {
		return 0, err
	}
	defer j.release()
	var t float64
	switch s.Engine {
	case BSP:
		t, err = s.runBSP(p, j.node)
	case Wavefront:
		t, err = s.runWavefront(p, j.node)
	case TaskPool, Stages:
		t, err = s.runTasks(p, j)
	case Independent:
		t = s.runIndependent(p, j.node)
	default:
		return 0, fmt.Errorf("app %s: unknown engine", s.Name)
	}
	if err != nil {
		return 0, err
	}
	s.record(p, t)
	return t, nil
}

// nodeDraws returns how many factors a run over n nodes reads from each
// node's sequence up front (want) and how many more a read past the filled
// end fills (step). The fixed-count engines read exactly want: Iterations
// per node, or one batch instance. A task engine's per-node count follows
// its schedule: want is a node's mean share of the launches plus a quarter
// (the nodes that run more than their share run about that much more), and
// the sequence grows in steps of a quarter of want. Every growth replays
// the sequence's draws so far, so a private table, filled afresh each run,
// rarely grows, and a shared one holds few factors no run reads.
func (s Spec) nodeDraws(n int) (want, step int) {
	switch s.Engine {
	case BSP, Wavefront:
		return s.Iterations, s.Iterations
	case TaskPool, Stages:
		want = s.NumStages * ((s.TasksPerStage + n - 1) / n)
		want += want / 4
		return want, max(want/4, 4)
	}
	return 1, 1
}

// bspCollective computes the fixed per-iteration collective cost.
func (s Spec) bspCollective(p Params, nodes int) float64 {
	procs := nodes * s.ProcsPerNode
	collective := p.Net.Allreduce(procs, s.AllreduceBytes) +
		p.Net.Allgather(procs, s.AllgatherBytes) +
		float64(1+s.BarriersPerIter)*p.Net.Barrier(procs)
	var meanExcess float64
	for _, sd := range p.Slowdown {
		meanExcess += sd - 1
	}
	meanExcess /= float64(nodes)
	return collective + s.SyncDrag*s.IterSec*meanExcess
}

// checkDelay mirrors the engine's scheduling validation so the closed
// forms reject exactly the delays sim.Engine.After would.
func checkDelay(d float64) error {
	if d < 0 {
		return fmt.Errorf("%w: negative delay %v", sim.ErrPastEvent, d)
	}
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return fmt.Errorf("sim: non-finite event time %v", d)
	}
	return nil
}

// runBSP executes bulk-synchronous iterations: all nodes compute, the
// slowest gates the iteration, then collectives run. The event schedule is
// statically known — a start event, then per iteration one compute event
// per node and one collective event — so the run replays the engine's
// arithmetic directly, bit-identically and without a heap: jitter is drawn
// in node order at scheduling time, an iteration ends at
// max_i(now + Time(d_i)), and the collective extends that via the same
// sim.Time additions sim.Engine.After performs. That schedule fires
// 1 + I·(n+1) events with at most n queued at once (Validate and
// Params.validate guarantee I ≥ 1 and n ≥ 1).
func (s Spec) runBSP(p Params, jit []cursor) (float64, error) {
	nodes := len(p.Slowdown)
	collective := s.bspCollective(p, nodes)
	if err := checkDelay(collective); err != nil {
		return 0, err
	}
	now := sim.Time(0)
	for iter := 0; iter < s.Iterations; iter++ {
		var worst sim.Time
		for i := 0; i < nodes; i++ {
			d := s.IterSec * p.Slowdown[i] * jit[i].next()
			if err := checkDelay(d); err != nil {
				return 0, err
			}
			if t := now + sim.Time(d); t > worst {
				worst = t
			}
		}
		now = worst + sim.Time(collective)
	}
	p.recordEvents(1+uint64(s.Iterations)*uint64(nodes+1), nodes)
	return float64(now), nil
}

// runWavefront executes iterations whose per-node stages are serialized:
// node 0 computes and hands off to node 1, and so on, so each node's
// slowdown contributes additively to the iteration. The event schedule is
// a strict chain — start, stage, hop, stage, hop, ... — with no hop after
// the very last stage of the last iteration, and jitter drawn one stage at
// a time in (iteration, node) order; the run replays exactly that
// arithmetic via the same sim.Time additions, like runBSP. The chain fires
// 2·I·n events with one queued at a time.
func (s Spec) runWavefront(p Params, jit []cursor) (float64, error) {
	nodes := len(p.Slowdown)
	hop := p.Net.PointToPoint(256 * 1024) // stage hand-off message
	if err := checkDelay(hop); err != nil {
		return 0, err
	}
	now := sim.Time(0)
	for iter := 0; iter < s.Iterations; iter++ {
		for node := 0; node < nodes; node++ {
			// Per-node stage: the solo iteration costs IterSec in total,
			// split evenly across the serialized node stages.
			d := s.IterSec / float64(nodes) * p.Slowdown[node] * jit[node].next()
			if err := checkDelay(d); err != nil {
				return 0, err
			}
			now += sim.Time(d)
			if !(iter == s.Iterations-1 && node == nodes-1) {
				now += sim.Time(hop)
			}
		}
	}
	p.recordEvents(2*uint64(s.Iterations)*uint64(nodes), 1)
	return float64(now), nil
}

// taskState tracks one logical task during a stage, including a possible
// speculative copy.
type taskState struct {
	done   bool
	cloned bool
	// runPos is the task's index in taskRun.running while its primary copy
	// is in flight and the task is not yet done.
	runPos int32
	// finish is the scheduled completion time of the primary copy, used
	// to pick straggler candidates.
	finish sim.Time
}

// taskRun is the workspace of one task-engine run: the run's context and
// the current stage's scheduling state, all in slices that the next run
// reuses. Workspaces live in a pool like the engines and the jitter views;
// startStage rewrites every per-stage field, so nothing a run (or a run
// that failed mid-stage) leaves behind reaches the next one.
//
// A slot is one task-sized share of a node: slot k belongs to node
// k / SlotsPerNode. Completion events are the closures in completeFn, built
// once per workspace and indexed by (stage, slot); the task a slot is
// running is looked up in slotTask when the event fires, so launching a
// task allocates nothing.
type taskRun struct {
	s     Spec
	p     Params
	eng   *sim.Engine
	jit   *runJitter
	nodes int
	err   error

	stage    int  // 1-based index of the stage in progress
	finished bool // the stage in progress has completed its last task
	// endTime is when the final stage's last task logically completes.
	// Speculative losers' completion events may still drain afterwards
	// (the winner already finished the task), so the engine's final
	// clock is not the job's makespan.
	endTime sim.Time

	tasks []taskState
	// skew is the per-task size skew, read up-front from the stage's skew
	// sequence so a task keeps its size whichever node (or speculative
	// copy) runs it and regardless of dispatch order.
	skew []float64
	// Locality: the first pinnedCount tasks are pinned to a home node
	// round-robin (task id is at home on node id % nodes), so node n's
	// queue is pinnedNext[n], pinnedNext[n]+nodes, ... < pinnedCount. The
	// rest float freely, in id order from floatNext.
	pinnedCount int
	pinnedNext  []int
	floatNext   int
	doneCount   int     // completed logical tasks
	free        []int32 // free slots, in the order dispatch scans them
	slotTask    []int32 // task id each busy slot is running
	running     []int32 // tasks whose primary copy is in flight, unordered

	startFn    func()     // startStage, as the stage-start event
	completeFn [][]func() // [stage-1][slot] -> complete(stage, slot)
}

var taskRunPool = sync.Pool{New: func() any {
	r := new(taskRun)
	r.startFn = r.startStage
	return r
}}

// runTasks executes NumStages stages of dynamically scheduled tasks and is
// shared by the TaskPool (Hadoop) and Stages (Spark) engines: the
// difference is entirely in the spec parameters (task granularity,
// speculation, shuffle volume).
func (s Spec) runTasks(p Params, jit *runJitter) (float64, error) {
	r := taskRunPool.Get().(*taskRun)
	r.s, r.p, r.jit, r.eng = s, p, jit, engineFor(p)
	r.nodes = len(p.Slowdown)
	r.stage, r.endTime = 0, 0
	defer func() {
		releaseEngine(r.eng)
		r.p, r.jit, r.eng, r.err = Params{}, nil, nil, nil
		taskRunPool.Put(r)
	}()
	if err := r.eng.At(0, r.startFn); err != nil {
		return 0, err
	}
	r.eng.Run()
	if r.err != nil {
		return 0, r.err
	}
	return float64(r.endTime), nil
}

func (r *taskRun) fail(err error) {
	r.err = err
	r.eng.Halt()
}

// startStage resets the per-stage state, reads the stage's task skew and
// hands every slot of every node to dispatch.
func (r *taskRun) startStage() {
	s := &r.s
	if r.stage >= s.NumStages {
		return
	}
	r.stage++
	r.finished = false

	r.tasks = resize(r.tasks, s.TasksPerStage)
	clear(r.tasks)
	r.skew = r.jit.f.skewInto(r.skew, r.stage, s.TasksPerStage)
	r.pinnedCount = int(s.LocalityFrac * float64(s.TasksPerStage))
	r.pinnedNext = resize(r.pinnedNext, r.nodes)
	for n := range r.pinnedNext {
		r.pinnedNext[n] = n
	}
	r.floatNext = r.pinnedCount
	r.doneCount = 0
	r.running = r.running[:0]

	slots := r.nodes * s.SlotsPerNode
	r.slotTask = resize(r.slotTask, slots)
	r.free = resize(r.free, slots)
	for k := range r.free {
		r.free[k] = int32(k)
	}
	for len(r.completeFn) < r.stage {
		r.completeFn = append(r.completeFn, nil)
	}
	fns := r.completeFn[r.stage-1]
	for k := len(fns); k < slots; k++ {
		stage, slot := r.stage, int32(k)
		fns = append(fns, func() { r.complete(stage, slot) })
	}
	r.completeFn[r.stage-1] = fns
	r.dispatch()
}

// resize returns v with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resize[T any](v []T, n int) []T {
	if cap(v) < n {
		return make([]T, n)
	}
	return v[:n]
}

// dispatch scans every free slot (slots on different nodes are not
// interchangeable once locality pins tasks) and launches whatever work each
// can legally run.
func (r *taskRun) dispatch() {
	s := &r.s
	kept := r.free[:0]
	for _, slot := range r.free {
		node := int(slot) / s.SlotsPerNode
		switch {
		case r.pinnedNext[node] < r.pinnedCount:
			id := r.pinnedNext[node]
			r.pinnedNext[node] += r.nodes
			r.launch(id, slot, node, false)
		case r.floatNext < s.TasksPerStage:
			id := r.floatNext
			r.floatNext++
			r.launch(id, slot, node, false)
		case s.Speculative:
			if id := r.pickClone(); id != -1 {
				r.tasks[id].cloned = true
				r.launch(id, slot, node, true)
			} else {
				kept = append(kept, slot)
			}
		default:
			kept = append(kept, slot)
		}
	}
	r.free = kept
}

// launch starts a copy of task id on the slot; clone marks a speculative
// second copy, which does not move the task's expected finish.
func (r *taskRun) launch(id int, slot int32, node int, clone bool) {
	d := r.s.TaskSec * r.skew[id] * r.p.Slowdown[node] * r.jit.node[node].next()
	if !clone {
		t := &r.tasks[id]
		t.finish = r.eng.Now() + sim.Time(d)
		t.runPos = int32(len(r.running))
		r.running = append(r.running, int32(id))
	}
	r.slotTask[slot] = int32(id)
	if err := r.eng.After(d, r.completeFn[r.stage-1][slot]); err != nil {
		r.fail(err)
	}
}

// complete is the completion event of the copy that stage launched on
// slot. A speculative loser can complete after its stage has finished —
// during the shuffle, or stages later, when the slot has long been handed
// out again — so an event from any stage but the one in progress is
// counted by the engine and otherwise ignored.
func (r *taskRun) complete(stage int, slot int32) {
	if stage != r.stage || r.finished {
		return
	}
	// The slot frees regardless; the logical task may already be done via
	// its twin copy.
	r.free = append(r.free, slot)
	id := r.slotTask[slot]
	if t := &r.tasks[id]; !t.done {
		t.done = true
		last := r.running[len(r.running)-1]
		r.running[t.runPos] = last
		r.tasks[last].runPos = t.runPos
		r.running = r.running[:len(r.running)-1]
		r.doneCount++
	}
	if r.doneCount == r.s.TasksPerStage {
		r.finishStage()
		return
	}
	r.dispatch()
}

// pickClone returns the running, un-cloned task with the latest expected
// finish still in the future, or -1; among equal finishes the lowest id.
func (r *taskRun) pickClone() int {
	id := -1
	var worst sim.Time
	now := r.eng.Now()
	for _, running := range r.running {
		rid := int(running)
		t := &r.tasks[rid]
		if t.cloned || t.finish <= now {
			continue
		}
		if id == -1 || t.finish > worst || (t.finish == worst && rid < id) {
			id, worst = rid, t.finish
		}
	}
	return id
}

// finishStage ends the stage in progress: the run's makespan if it was the
// last, otherwise the shuffle and then the next stage.
func (r *taskRun) finishStage() {
	r.finished = true
	if r.stage == r.s.NumStages {
		r.endTime = r.eng.Now()
		return
	}
	gap := 0.0
	if r.s.ShuffleBytesPerNode > 0 {
		gap = r.p.Net.Shuffle(r.nodes, r.s.ShuffleBytesPerNode)
	}
	if err := r.eng.After(gap, r.startFn); err != nil {
		r.fail(err)
	}
}

// runIndependent models unsynchronized batch instances: every node runs its
// own instances, and the reported time is the mean per-instance runtime
// (the quantity the paper's throughput metric weighs for SPEC CPU2006
// co-runners).
func (s Spec) runIndependent(p Params, jit []cursor) float64 {
	// Summed in node order and divided by the count: stats.Mean's
	// arithmetic, without the slice of times.
	var sum float64
	for i, sd := range p.Slowdown {
		sum += s.BatchSec * sd * jit[i].next()
	}
	return sum / float64(len(p.Slowdown))
}
