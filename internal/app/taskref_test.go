package app

import (
	"math"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// refTaskRun is the task engine as the golden file was first written by:
// closure-valued events, and a dispatch that rescans every free slot after
// every completion. runTasks must match it bit for bit, in makespan,
// errors and event counts.
type refTaskRun struct {
	s        Spec
	p        Params
	q        sim.Queue[func()]
	jit      *runJitter
	nodes    int
	err      error
	halted   bool
	stage    int
	finished bool // the stage in progress has completed its last task
	endTime  sim.Time

	tasks       []taskState
	skew        []float64
	pinnedCount int
	pinnedNext  []int
	floatNext   int
	doneCount   int
	free        []int32
	slotTask    []int32
	running     []int32
}

// refTaskEngine runs a task-engine spec on the reference engine and
// flushes its event counts to p.Telemetry.
func refTaskEngine(s Spec, p Params) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if err := p.validate(); err != nil {
		return 0, err
	}
	want, step := s.nodeDraws(len(p.Slowdown))
	jit, err := s.openJitter(p, want, step)
	if err != nil {
		return 0, err
	}
	defer jit.release()
	r := &refTaskRun{s: s, p: p, jit: jit, nodes: len(p.Slowdown)}
	if err := r.q.At(0, r.startStage); err != nil {
		return 0, err
	}
	runClosures(&r.q, &r.halted)
	r.q.Flush(p.Telemetry)
	if r.err != nil {
		return 0, r.err
	}
	return float64(r.endTime), nil
}

func (r *refTaskRun) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.halted = true
}

func (r *refTaskRun) startStage() {
	s := &r.s
	if r.stage >= s.NumStages {
		return
	}
	r.stage++
	r.finished = false
	r.tasks = make([]taskState, s.TasksPerStage)
	r.skew = r.jit.f.skewInto(nil, r.stage, s.TasksPerStage)
	r.pinnedCount = int(s.LocalityFrac * float64(s.TasksPerStage))
	r.pinnedNext = make([]int, r.nodes)
	for n := range r.pinnedNext {
		r.pinnedNext[n] = n
	}
	r.floatNext = r.pinnedCount
	r.doneCount = 0
	r.running = r.running[:0]
	slots := r.nodes * s.SlotsPerNode
	r.slotTask = make([]int32, slots)
	r.free = make([]int32, slots)
	for k := range r.free {
		r.free[k] = int32(k)
	}
	r.dispatch()
}

func (r *refTaskRun) dispatch() {
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

func (r *refTaskRun) launch(id int, slot int32, node int, clone bool) {
	d := r.s.TaskSec * r.skew[id] * r.p.Slowdown[node] * r.jit.node[node].next()
	if !clone {
		t := &r.tasks[id]
		t.finish = r.q.Now() + sim.Time(d)
		t.runPos = int32(len(r.running))
		r.running = append(r.running, int32(id))
	}
	r.slotTask[slot] = int32(id)
	stage := r.stage
	if err := r.q.After(d, func() { r.complete(stage, slot) }); err != nil {
		r.fail(err)
	}
}

func (r *refTaskRun) complete(stage int, slot int32) {
	if stage != r.stage || r.finished {
		return
	}
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

func (r *refTaskRun) pickClone() int {
	id := -1
	var worst sim.Time
	now := r.q.Now()
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

func (r *refTaskRun) finishStage() {
	r.finished = true
	if r.stage == r.s.NumStages {
		r.endTime = r.q.Now()
		return
	}
	gap := 0.0
	if r.s.ShuffleBytesPerNode > 0 {
		gap = r.p.Net.Shuffle(r.nodes, r.s.ShuffleBytesPerNode)
	}
	if err := r.q.After(gap, r.startStage); err != nil {
		r.fail(err)
	}
}

// FuzzTaskEngineMatchesReference: over 1–32 nodes of 1–8 slots, with and
// without speculation, at any locality, with jitter-free ties, slowdowns
// up to 40 and task durations that overflow, the task engine must return
// the reference engine's makespan bits or its error, and count the same
// scheduled and fired events and the same queue high-water mark.
func FuzzTaskEngineMatchesReference(f *testing.F) {
	// Index tables for the spec's continuous parameters; the last task
	// duration overflows a stage to +Inf.
	taskSecs := []float64{0.1, 0.25, 0.4, 0.5, 1e308}
	noises := []float64{0, 0.02, 0.05, 0.1}
	skews := []float64{0, 0.1, 0.2, 0.3}
	shuffles := []float64{0, 32e6, 64e6, 128e6}
	// Arguments: nodes, slots per node, stages and tasks per stage (each
	// one less than the value), kind (bit 0 Stages, bit 1 speculative),
	// task duration, noise, skew and shuffle indexes, locality percent,
	// slowdown shape (uniform, one slow node, graded, random) and its
	// largest factor less one, seed.
	type args struct {
		nodes, slots, stages, tasks, kind         uint8
		taskSec, noise, skew, shuffle, loc, shape uint8
		slow                                      uint8
		seed                                      int64
	}
	for _, a := range []args{
		// The golden grid's "few", "ties" and "tail" shapes, one slow node
		// at 40.
		{nodes: 7, slots: 3, stages: 2, tasks: 2, kind: 2, taskSec: 3, noise: 2, loc: 35, shape: 1, slow: 39, seed: 1},
		{nodes: 2, slots: 1, stages: 2, tasks: 39, kind: 1, taskSec: 2, shuffle: 1, loc: 70, shape: 1, slow: 39, seed: 7},
		{nodes: 11, slots: 1, stages: 5, tasks: 23, kind: 2, taskSec: 0, noise: 2, skew: 2, shape: 1, slow: 39, seed: 1},
		{nodes: 31, slots: 7, stages: 3, tasks: 255, kind: 3, taskSec: 1, noise: 2, skew: 3, shuffle: 2, loc: 50, shape: 3, slow: 20, seed: 5},
		{nodes: 3, slots: 3, stages: 1, tasks: 99, kind: 2, taskSec: 4, loc: 100, shape: 2, seed: 2},
		{nodes: 0, slots: 0, stages: 0, tasks: 0, seed: 3},
	} {
		f.Add(a.nodes, a.slots, a.stages, a.tasks, a.kind, a.taskSec, a.noise, a.skew, a.shuffle, a.loc, a.shape, a.slow, a.seed)
	}
	f.Fuzz(func(t *testing.T, nodes, slots, stages, tasks, kind, taskSec, noise, skew, shuffle, loc, shape, slow uint8, seed int64) {
		s := Spec{
			Name: "fuzz", Engine: TaskPool,
			NumStages: 1 + int(stages%8), TasksPerStage: 1 + int(tasks), SlotsPerNode: 1 + int(slots%8),
			TaskSec: taskSecs[int(taskSec)%len(taskSecs)], Speculative: kind&2 != 0,
			NoiseSigma: noises[int(noise)%len(noises)], TaskSkewSigma: skews[int(skew)%len(skews)],
			ShuffleBytesPerNode: shuffles[int(shuffle)%len(shuffles)],
			LocalityFrac:        float64(min(loc, 100)) / 100,
		}
		if kind&1 != 0 {
			s.Engine = Stages
		}
		n := 1 + int(nodes%32)
		top := 1 + float64(slow%40) // at most 40
		sd := make([]float64, n)
		rng := sim.NewRNG(seed).Stream("slowdown")
		for i := range sd {
			switch shape % 4 {
			case 0:
				sd[i] = 1
			case 1:
				sd[i] = 1
				if i == 0 {
					sd[i] = top
				}
			case 2:
				sd[i] = 1 + (top-1)*float64(i)/float64(n)
			default:
				sd[i] = rng.Uniform(1, top)
			}
		}
		params := func(reg *telemetry.Registry) Params {
			return Params{Slowdown: sd, Net: netsim.TenGbE(), RNG: sim.NewRNG(seed).Stream("fuzz"), Telemetry: reg}
		}
		refReg, reg := telemetry.NewRegistry(), telemetry.NewRegistry()
		want, wantErr := refTaskEngine(s, params(refReg))
		got, err := s.Run(params(reg))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%+v over %v: error %v, reference %v", s, sd, err, wantErr)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%+v over %v: makespan %v, reference %v", s, sd, got, want)
		}
		if g, w := eventCounts(reg), eventCounts(refReg); g != w {
			t.Fatalf("%+v over %v: scheduled/fired/high-water %v, reference %v", s, sd, g, w)
		}
	})
}
