package app

import (
	"math"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Edge-case coverage for the task scheduling engine: locality pinning,
// speculation bookkeeping, degenerate shapes, and conservation invariants.

func runSpec(t *testing.T, s Spec, sd []float64, seed int64) float64 {
	t.Helper()
	got, err := s.Run(Params{Slowdown: sd, Net: netsim.TenGbE(), RNG: sim.NewRNG(seed)})
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	if got <= 0 || math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("%s: bad makespan %v", s.Name, got)
	}
	return got
}

func TestTaskPoolSingleNode(t *testing.T) {
	s := taskPoolSpec()
	got := runSpec(t, s, []float64{1}, 1)
	// 2 stages of 256 tasks on 4 slots at 0.25s: at least 2*256/4*0.25.
	lower := 2.0 * 256 / 4 * 0.25 * 0.9
	if got < lower {
		t.Errorf("single-node makespan %v below work bound %v", got, lower)
	}
}

func TestTasksFewerThanSlots(t *testing.T) {
	s := taskPoolSpec()
	s.TasksPerStage = 3 // far fewer than 8 nodes x 4 slots
	s.NumStages = 1
	s.NoiseSigma = 0
	got := runSpec(t, s, slowedVector(8, 0, 1), 1)
	// All three run in parallel: one task's duration.
	if math.Abs(got-s.TaskSec) > 1e-9 {
		t.Errorf("makespan = %v, want one task time %v", got, s.TaskSec)
	}
}

func TestFullyPinnedNoSpeculationSerializesOnSlowNode(t *testing.T) {
	s := taskPoolSpec()
	s.LocalityFrac = 1.0
	s.Speculative = false
	s.NoiseSigma = 0
	s.NumStages = 1
	s.TasksPerStage = 64 // 8 per node on 8 nodes, 4 slots each = 2 waves
	s.ShuffleBytesPerNode = 0
	slow := 3.0
	got := runSpec(t, s, slowedVector(8, 1, slow), 1)
	// The slow node must run its 8 pinned tasks on 4 slots: 2 waves of
	// slowed tasks gate the stage.
	want := 2 * s.TaskSec * slow
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("fully pinned makespan = %v, want %v", got, want)
	}
}

func TestSpeculationRescuesPinnedTasks(t *testing.T) {
	s := taskPoolSpec()
	s.LocalityFrac = 1.0
	s.NoiseSigma = 0
	s.NumStages = 1
	s.TasksPerStage = 64
	s.ShuffleBytesPerNode = 0
	s.Speculative = true
	slow := 3.0
	withSpec := runSpec(t, s, slowedVector(8, 1, slow), 1)
	s.Speculative = false
	without := runSpec(t, s, slowedVector(8, 1, slow), 1)
	if withSpec >= without {
		t.Errorf("speculation should rescue pinned stragglers: %v vs %v", withSpec, without)
	}
}

func TestZeroLocalityAbsorbsPerfectly(t *testing.T) {
	s := taskPoolSpec()
	s.LocalityFrac = 0
	s.Speculative = false
	s.NoiseSigma = 0
	s.NumStages = 1
	s.TasksPerStage = 512 // fine-grained
	s.TaskSec = 0.05
	s.ShuffleBytesPerNode = 0
	slow := 2.0
	got := runSpec(t, s, slowedVector(8, 1, slow), 1)
	solo := runSpec(t, s, slowedVector(8, 0, 1), 1)
	// Harmonic absorption: aggregate rate drops from 8 to 7.5.
	ideal := solo * 8 / 7.5
	if got > ideal*1.1 {
		t.Errorf("free balancing should absorb: got %v, ideal %v", got, ideal)
	}
}

func TestWavefrontSingleNode(t *testing.T) {
	s := wavefrontSpec()
	s.NoiseSigma = 0
	got := runSpec(t, s, []float64{2.0}, 1)
	want := float64(s.Iterations) * s.IterSec * 2.0
	// Single node still pays the per-iteration hop cost.
	if got < want {
		t.Errorf("single-node wavefront %v below compute bound %v", got, want)
	}
}

func TestBSPSingleNodeHasNoCollectiveCost(t *testing.T) {
	s := bspSpec()
	s.NoiseSigma = 0
	s.SyncDrag = 0
	got := runSpec(t, s, []float64{1.5}, 1)
	want := float64(s.Iterations) * s.IterSec * 1.5
	// With one node the collectives over 1*Procs ranks still cost a
	// little (procs > 1), so allow a band above the compute bound.
	if got < want || got > want*1.2 {
		t.Errorf("single-node BSP = %v, want within [%v, %v]", got, want, want*1.2)
	}
}

func TestStagesManyStagesAccumulateShuffles(t *testing.T) {
	s := stagesSpec()
	s.NoiseSigma = 0
	s.TaskSkewSigma = 0
	one := s
	one.NumStages = 1
	many := s
	many.NumStages = 4
	tOne := runSpec(t, one, slowedVector(8, 0, 1), 1)
	tMany := runSpec(t, many, slowedVector(8, 0, 1), 1)
	if tMany < 3.5*tOne {
		t.Errorf("4 stages (%v) should cost ~4x one stage (%v) plus shuffles", tMany, tOne)
	}
}

func TestTaskEngineConservation(t *testing.T) {
	// Whatever the configuration, makespan x total slots >= total work:
	// the engine cannot do work it does not have capacity for.
	s := taskPoolSpec()
	s.NoiseSigma = 0
	s.TaskSkewSigma = 0
	s.ShuffleBytesPerNode = 0
	for _, nodes := range []int{1, 2, 8} {
		for _, tasks := range []int{5, 32, 200} {
			s.TasksPerStage = tasks
			got := runSpec(t, s, slowedVector(nodes, 0, 1), 1)
			totalWork := float64(s.NumStages*tasks) * s.TaskSec
			capacity := got * float64(nodes*s.SlotsPerNode)
			if capacity < totalWork*0.999 {
				t.Errorf("nodes=%d tasks=%d: capacity %v below work %v",
					nodes, tasks, capacity, totalWork)
			}
		}
	}
}

func TestHugeSlowdownStillTerminates(t *testing.T) {
	for _, s := range []Spec{bspSpec(), wavefrontSpec(), taskPoolSpec(), stagesSpec()} {
		got := runSpec(t, s, slowedVector(8, 8, 40.0), 1)
		if got <= 0 {
			t.Errorf("%s: %v", s.Name, got)
		}
	}
}

// TestFirstSchedulingErrorReported: when several launches of one dispatch
// fail to schedule, the run reports the first. An infinite task duration
// times a skew factor that underflowed to 0 is a NaN delay, times any
// other factor an infinite one; the test looks for a seed whose first
// dispatch fails both ways, with the first and last launch differing.
func TestFirstSchedulingErrorReported(t *testing.T) {
	s := Spec{Name: "inf", Engine: TaskPool, NumStages: 1, TasksPerStage: 16, TaskSec: math.Inf(1),
		SlotsPerNode: 2, TaskSkewSigma: 38}
	sd := []float64{1, 1, 1, 1}
	slots := len(sd) * s.SlotsPerNode
	kind := func(skew float64) string {
		if skew == 0 {
			return "NaN"
		}
		return "+Inf"
	}
	for seed := int64(1); seed <= 100; seed++ {
		p := Params{Slowdown: sd, Net: netsim.TenGbE(), RNG: sim.NewRNG(seed)}
		want, step := s.nodeDraws(len(sd))
		jit, err := s.openJitter(p, want, step)
		if err != nil {
			t.Fatal(err)
		}
		// With no pinned tasks, the stage's first dispatch launches task k
		// on slot k.
		skew := jit.f.skewInto(nil, 1, s.TasksPerStage)
		jit.release()
		first, last := kind(skew[0]), kind(skew[slots-1])
		if first == last {
			continue
		}
		_, err = s.Run(p)
		if err == nil || !strings.HasSuffix(err.Error(), "non-finite event time "+first) {
			t.Fatalf("seed %d: error %v, want the first launch's non-finite event time %s (the last launch's is %s)",
				seed, err, first, last)
		}
		return
	}
	t.Fatal("no seed in 1-100 gives a first dispatch whose first and last launch fail differently")
}
