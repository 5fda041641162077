package app

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// freshStreams derives a run's node jitter streams straight from its run
// stream, bypassing the factor tables: the references below draw from
// them, so they check the tables as well as the closed forms.
func freshStreams(rng *sim.RNG, n int) []*sim.RNG {
	streams := make([]*sim.RNG, n)
	for i := range streams {
		streams[i] = rng.StreamN("node", i)
	}
	return streams
}

// refBSPEngine is the event-driven BSP evaluation the closed form in
// runBSP replays: a start event, then per iteration one compute event per
// node and, when the last of them fires, one collective event that starts
// the next iteration.
func refBSPEngine(s Spec, p Params, eng *sim.Engine) (float64, error) {
	streams := freshStreams(p.RNG, len(p.Slowdown))
	nodes := len(p.Slowdown)
	collective := s.bspCollective(p, nodes)
	iter := 0
	var schedErr error
	var startIter func()
	startIter = func() {
		if iter >= s.Iterations {
			return
		}
		iter++
		remaining := nodes
		for i := 0; i < nodes; i++ {
			d := s.IterSec * p.Slowdown[i] * streams[i].JitterAround1(s.NoiseSigma)
			if err := eng.After(d, func() {
				remaining--
				if remaining == 0 {
					if err := eng.After(collective, startIter); err != nil {
						schedErr = err
						eng.Halt()
					}
				}
			}); err != nil {
				schedErr = err
				eng.Halt()
				return
			}
		}
	}
	if err := eng.At(0, startIter); err != nil {
		return 0, err
	}
	end := eng.Run()
	return float64(end), schedErr
}

// refWavefrontEngine is the event-driven wavefront evaluation the closed
// form in runWavefront replays: a strict chain of stage and hop events.
func refWavefrontEngine(s Spec, p Params, eng *sim.Engine) (float64, error) {
	streams := freshStreams(p.RNG, len(p.Slowdown))
	nodes := len(p.Slowdown)
	hop := p.Net.PointToPoint(256 * 1024)
	iter, node := 0, 0
	var schedErr error
	var step func()
	step = func() {
		if iter >= s.Iterations {
			return
		}
		d := s.IterSec / float64(nodes) * p.Slowdown[node] * streams[node].JitterAround1(s.NoiseSigma)
		if err := eng.After(d, func() {
			node++
			if node == nodes {
				node = 0
				iter++
				if iter >= s.Iterations {
					return
				}
			}
			if err := eng.After(hop, step); err != nil {
				schedErr = err
				eng.Halt()
			}
		}); err != nil {
			schedErr = err
			eng.Halt()
		}
	}
	if err := eng.At(0, step); err != nil {
		return 0, err
	}
	end := eng.Run()
	return float64(end), schedErr
}

// eventCounts reads the three event metrics an instrumented run leaves.
func eventCounts(reg *telemetry.Registry) [3]float64 {
	return [3]float64{
		float64(reg.Counter(sim.MetricEventsScheduled).Value()),
		float64(reg.Counter(sim.MetricEventsFired).Value()),
		reg.Gauge(sim.MetricQueueHighWater).Value(),
	}
}

// TestClosedFormMatchesEngine: BSP and Wavefront always take their closed
// forms, which replay the exact arithmetic of the event-driven reference
// (same draws, same additions). At every (iterations, nodes) tried, bare
// and instrumented runs must match the reference's makespan bit for bit,
// and an instrumented run must report exactly the scheduled and fired
// counts and queue high-water mark the reference engine counted.
func TestClosedFormMatchesEngine(t *testing.T) {
	refs := []struct {
		spec Spec
		run  func(Spec, Params, *sim.Engine) (float64, error)
	}{{bspSpec(), refBSPEngine}, {wavefrontSpec(), refWavefrontEngine}}
	for _, ref := range refs {
		for _, iters := range []int{1, 2, 3, 40} {
			for _, nodes := range []int{1, 2, 3, 4, 8, 12} {
				for _, seed := range []int64{1, 7, 42} {
					s := ref.spec
					s.Iterations = iters
					sd := make([]float64, nodes)
					for i := range sd {
						sd[i] = 1 + 0.37*float64((i*5+int(seed))%7)
					}
					params := func(reg *telemetry.Registry) Params {
						return Params{Slowdown: sd, Net: netsim.TenGbE(), RNG: sim.NewRNG(seed).Stream("fastpath"), Telemetry: reg}
					}
					name := fmt.Sprintf("%s I=%d n=%d seed=%d", s.Name, iters, nodes, seed)

					eng := sim.NewEngine()
					refReg := telemetry.NewRegistry()
					eng.Instrument(refReg)
					want, err := ref.run(s, params(nil), eng)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					bare, err := s.Run(params(nil))
					if err != nil {
						t.Fatal(err)
					}
					reg := telemetry.NewRegistry()
					instr, err := s.Run(params(reg))
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(bare) != math.Float64bits(want) || math.Float64bits(instr) != math.Float64bits(want) {
						t.Errorf("%s: bare %v, instrumented %v, engine %v", name, bare, instr, want)
					}
					if got, want := eventCounts(reg), eventCounts(refReg); got != want {
						t.Errorf("%s: scheduled/fired/high-water %v, engine %v", name, got, want)
					}
				}
			}
		}
	}
}

// TestEnginePoolReuseDeterministic: task-engine runs recycle event engines
// and workspaces through their pools; a reused one must not leak state into
// later runs — not even one whose previous run died mid-stage, nor a
// registry from an instrumented run into a bare one.
func TestEnginePoolReuseDeterministic(t *testing.T) {
	// The second node's first task overflows to +Inf: the engine halts
	// inside the first dispatch with tasks in flight and events queued.
	broken := taskPoolSpec()
	broken.TaskSec = 1e308
	for _, s := range []Spec{taskPoolSpec(), stagesSpec()} {
		run := func(reg *telemetry.Registry) float64 {
			v, err := s.Run(Params{
				Slowdown:  []float64{2, 1, 1.5, 1},
				Net:       netsim.TenGbE(),
				RNG:       sim.NewRNG(11).Stream("pool"),
				Telemetry: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		want := run(nil)
		first := telemetry.NewRegistry()
		if got := run(first); got != want {
			t.Fatalf("%s: instrumented run = %v, bare %v", s.Name, got, want)
		}
		counts := eventCounts(first)
		for i := 0; i < 5; i++ {
			if _, err := broken.Run(Params{
				Slowdown: []float64{1, 2, 1.5, 1},
				Net:      netsim.TenGbE(),
				RNG:      sim.NewRNG(int64(i)),
			}); err == nil || !strings.Contains(err.Error(), "non-finite event time") {
				t.Fatalf("overflowing task delay: err = %v, want a non-finite event time", err)
			}
			if got := run(nil); got != want {
				t.Fatalf("%s: run %d = %v, want %v (pooled engine leaked state)", s.Name, i, got, want)
			}
			reg := telemetry.NewRegistry()
			if got := run(reg); got != want {
				t.Fatalf("%s: instrumented run %d = %v, want %v", s.Name, i, got, want)
			}
			if got := eventCounts(reg); got != counts {
				t.Fatalf("%s: instrumented run %d counted %v, the first %v", s.Name, i, got, counts)
			}
		}
		if got := eventCounts(first); got != counts {
			t.Errorf("%s: later runs added to the first run's registry: %v, was %v", s.Name, got, counts)
		}
	}
}

// TestStreamPoolReuseDeterministic: a run without a shared table fills a
// private one from a pool, in storage earlier runs filled, with generators
// borrowed from another pool and re-targeted in place, so a run's result
// must not depend on which runs — how many nodes, which seeds, how many
// draws — used that storage and those generators before it, nor on other
// goroutines doing the same at the same time.
func TestStreamPoolReuseDeterministic(t *testing.T) {
	type job struct {
		spec  Spec
		nodes int
		seed  int64
	}
	var jobs []job
	// The task-engine shapes differ in stages, tasks and slots per node, so
	// the pooled workspace grows and shrinks along every axis between runs.
	specs := append(taskGoldenSpecs(), bspSpec(), wavefrontSpec(),
		Spec{Name: "wide", Engine: TaskPool, NumStages: 7, TasksPerStage: 90, TaskSec: 0.2,
			SlotsPerNode: 6, Speculative: true, LocalityFrac: 0.4, NoiseSigma: 0.05, TaskSkewSigma: 0.1},
		Spec{Name: "batch", Engine: Independent, BatchSec: 100, NoiseSigma: 0.02})
	for _, s := range specs {
		for _, nodes := range []int{8, 1, 3, 12} { // grows and shrinks the pooled slice
			for seed := int64(1); seed <= 3; seed++ {
				jobs = append(jobs, job{s, nodes, seed})
			}
		}
	}
	run := func(j job) float64 {
		v, err := j.spec.Run(Params{
			Slowdown: slowedVector(j.nodes, 1, 2),
			Net:      netsim.TenGbE(),
			RNG:      sim.NewRNG(j.seed).Stream("streams"),
		})
		if err != nil {
			t.Error(err)
		}
		return v
	}
	want := make([]float64, len(jobs))
	for i, j := range jobs {
		want[i] = run(j)
	}
	// The independent engine has a closed form over freshly derived
	// streams: the private tables must hold exactly what those draw.
	for i, j := range jobs {
		if j.spec.Engine != Independent {
			continue
		}
		rng := sim.NewRNG(j.seed).Stream("streams")
		var sum float64
		for n, sd := range slowedVector(j.nodes, 1, 2) {
			sum += j.spec.BatchSec * sd * rng.StreamN("node", n).JitterAround1(j.spec.NoiseSigma)
		}
		if ref := sum / float64(j.nodes); math.Abs(want[i]-ref) > 1e-12*ref {
			t.Errorf("independent, %d nodes, seed %d: %v, fresh streams give %v", j.nodes, j.seed, want[i], ref)
		}
	}
	for i := len(jobs) - 1; i >= 0; i-- { // the same runs after other neighbours
		if got := run(jobs[i]); got != want[i] {
			t.Errorf("%s, %d nodes, seed %d: %v in reverse order, %v before", jobs[i].spec.Name, jobs[i].nodes, jobs[i].seed, got, want[i])
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range jobs {
				i := (len(jobs) - 1 - k + 7*g) % len(jobs) // another order per goroutine
				if got := run(jobs[i]); got != want[i] {
					t.Errorf("%s, %d nodes, seed %d: %v after other runs, %v before", jobs[i].spec.Name, jobs[i].nodes, jobs[i].seed, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
