package app

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestClosedFormMatchesEngine: BSP and Wavefront take a closed-form path
// when the run is uninstrumented and the event-engine path when telemetry
// is attached; the makespans must be bit-identical, since the closed form
// replays the exact engine arithmetic (same draws, same additions).
func TestClosedFormMatchesEngine(t *testing.T) {
	specs := []Spec{bspSpec(), wavefrontSpec()}
	slowdowns := [][]float64{
		{1, 1, 1, 1},
		{2.5, 1, 1, 1, 1, 1, 1, 1},
		{1.3, 1.7},
		{1},
		{4, 3, 2, 1, 1.5, 2.5},
	}
	for _, s := range specs {
		for _, seed := range []int64{1, 7, 42} {
			for _, sd := range slowdowns {
				base := Params{Slowdown: sd, Net: netsim.TenGbE()}
				direct := base
				direct.RNG = sim.NewRNG(seed).Stream("fastpath")
				engine := base
				engine.RNG = sim.NewRNG(seed).Stream("fastpath")
				engine.Telemetry = telemetry.NewRegistry()
				d, err := s.Run(direct)
				if err != nil {
					t.Fatal(err)
				}
				e, err := s.Run(engine)
				if err != nil {
					t.Fatal(err)
				}
				if d != e {
					t.Errorf("%s seed=%d sd=%v: direct %v != engine %v", s.Name, seed, sd, d, e)
				}
			}
		}
	}
}

// TestEnginePoolReuseDeterministic: repeated runs recycle engines and task
// workspaces through their pools; a reused one must not leak state into
// later runs — not even one whose previous run died mid-stage.
func TestEnginePoolReuseDeterministic(t *testing.T) {
	// The second node's first task overflows to +Inf: the engine halts
	// inside the first dispatch with tasks in flight and events queued.
	broken := taskPoolSpec()
	broken.TaskSec = 1e308
	specs := []Spec{taskPoolSpec(), stagesSpec(), bspSpec()}
	for _, s := range specs {
		run := func() float64 {
			p := Params{
				Slowdown: []float64{2, 1, 1.5, 1},
				Net:      netsim.TenGbE(),
				RNG:      sim.NewRNG(11).Stream("pool"),
			}
			if s.Engine == BSP {
				// Force the engine path so BSP exercises the pool too.
				p.Telemetry = telemetry.NewRegistry()
			}
			v, err := s.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		want := run()
		for i := 0; i < 5; i++ {
			if _, err := broken.Run(Params{
				Slowdown: []float64{1, 2, 1.5, 1},
				Net:      netsim.TenGbE(),
				RNG:      sim.NewRNG(int64(i)),
			}); err == nil || !strings.Contains(err.Error(), "non-finite event time") {
				t.Fatalf("overflowing task delay: err = %v, want a non-finite event time", err)
			}
			if got := run(); got != want {
				t.Fatalf("%s: run %d = %v, want %v (pooled engine leaked state)", s.Name, i, got, want)
			}
		}
	}
}

// TestStreamPoolReuseDeterministic: runs take their node and skew streams
// from a pool and re-target them in place, so a run's result must not
// depend on which runs — how many nodes, which seeds, how many draws —
// used those generators before it, nor on other goroutines doing the same
// at the same time.
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
	// streams: the pooled ones must draw exactly what those draw.
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
