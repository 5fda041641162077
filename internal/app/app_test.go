package app

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func bspSpec() Spec {
	return Spec{
		Name: "bsp", Engine: BSP,
		Iterations: 40, IterSec: 0.5, NoiseSigma: 0.03,
		ProcsPerNode: 4, AllreduceBytes: 4e6, BarriersPerIter: 1, SyncDrag: 0.12,
	}
}

func wavefrontSpec() Spec {
	return Spec{
		Name: "wave", Engine: Wavefront,
		Iterations: 40, IterSec: 0.8, NoiseSigma: 0.02,
	}
}

func taskPoolSpec() Spec {
	return Spec{
		Name: "pool", Engine: TaskPool,
		NumStages: 2, TasksPerStage: 256, TaskSec: 0.25, SlotsPerNode: 4,
		Speculative: true, LocalityFrac: 0.5,
		ShuffleBytesPerNode: 64e6, NoiseSigma: 0.05,
	}
}

func stagesSpec() Spec {
	return Spec{
		Name: "stages", Engine: Stages,
		NumStages: 4, TasksPerStage: 48, TaskSec: 0.5, SlotsPerNode: 4,
		TaskSkewSigma: 0.3, LocalityFrac: 0.7,
		ShuffleBytesPerNode: 128e6, NoiseSigma: 0.05,
	}
}

func runNormalized(t *testing.T, s Spec, slowdown []float64, seed int64) float64 {
	t.Helper()
	net := netsim.TenGbE()
	base := make([]float64, len(slowdown))
	for i := range base {
		base[i] = 1
	}
	solo, err := s.Run(Params{Slowdown: base, Net: net, RNG: sim.NewRNG(seed).Stream("solo")})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Run(Params{Slowdown: slowdown, Net: net, RNG: sim.NewRNG(seed).Stream("run")})
	if err != nil {
		t.Fatal(err)
	}
	return got / solo
}

func slowedVector(n, k int, s float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		if i < k {
			v[i] = s
		} else {
			v[i] = 1
		}
	}
	return v
}

func TestValidateAcceptsCanonicalSpecs(t *testing.T) {
	for _, s := range []Spec{bspSpec(), wavefrontSpec(), taskPoolSpec(), stagesSpec(),
		{Name: "ind", Engine: Independent, BatchSec: 10}} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{},                               // no name
		{Name: "x", Engine: BSP},         // missing iteration params
		{Name: "x", Engine: Engine(99)},  // unknown engine
		{Name: "x", Engine: Independent}, // missing BatchSec
		{Name: "x", Engine: TaskPool},    // missing task params
		{Name: "x", Engine: Wavefront},   // missing iterations
		func() Spec { s := bspSpec(); s.NoiseSigma = -1; return s }(),
		func() Spec { s := bspSpec(); s.ProcsPerNode = 0; return s }(),
		func() Spec { s := bspSpec(); s.AllreduceBytes = -1; return s }(),
		func() Spec { s := taskPoolSpec(); s.ShuffleBytesPerNode = -1; return s }(),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, s)
		}
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	s := bspSpec()
	net := netsim.TenGbE()
	rng := sim.NewRNG(1)
	cases := []Params{
		{Slowdown: nil, Net: net, RNG: rng},
		{Slowdown: []float64{0.5}, Net: net, RNG: rng},
		{Slowdown: []float64{math.NaN()}, Net: net, RNG: rng},
		{Slowdown: []float64{1}, Net: netsim.Network{}, RNG: rng},
		{Slowdown: []float64{1}, Net: net, RNG: nil},
	}
	for i, p := range cases {
		if _, err := s.Run(p); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestEngineString(t *testing.T) {
	names := map[Engine]string{
		BSP: "BSP", Wavefront: "Wavefront", TaskPool: "TaskPool",
		Stages: "Stages", Independent: "Independent", Engine(42): "Engine(42)",
	}
	for e, want := range names {
		if got := e.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(e), got, want)
		}
	}
}

// The defining property of the BSP class: interference on a single node
// propagates almost fully to the application (the "high propagation" jump
// of Figs. 2-3), and adding further interfering nodes changes little.
func TestBSPHighPropagation(t *testing.T) {
	s := bspSpec()
	one := runNormalized(t, s, slowedVector(8, 1, 2.0), 7)
	if one < 1.7 {
		t.Errorf("BSP with one 2x-slowed node normalized time = %v, want near 2", one)
	}
	all := runNormalized(t, s, slowedVector(8, 8, 2.0), 7)
	if all < one {
		t.Errorf("more interfering nodes should not speed things up: %v < %v", all, one)
	}
	if all > one*1.25 {
		t.Errorf("BSP growth from 1 to 8 interfering nodes too steep: %v -> %v", one, all)
	}
}

// The defining property of the Wavefront class: normalized time grows
// roughly linearly with the number of slowed nodes (M.Gems in Fig. 3).
func TestWavefrontProportionalPropagation(t *testing.T) {
	s := wavefrontSpec()
	var prev float64 = 1
	for k := 0; k <= 8; k += 2 {
		got := runNormalized(t, s, slowedVector(8, k, 2.0), 11)
		wantIdeal := 1 + float64(k)*(2.0-1)/8
		if math.Abs(got-wantIdeal) > 0.12 {
			t.Errorf("wavefront k=%d normalized = %v, want ~%v", k, got, wantIdeal)
		}
		if got+0.02 < prev {
			t.Errorf("wavefront not monotone at k=%d: %v after %v", k, got, prev)
		}
		prev = got
	}
}

// The defining property of the TaskPool class: a single slowed node is
// largely absorbed by dynamic load balancing (H.KM in Fig. 3).
func TestTaskPoolLowPropagation(t *testing.T) {
	s := taskPoolSpec()
	one := runNormalized(t, s, slowedVector(8, 1, 2.0), 13)
	if one > 1.25 {
		t.Errorf("task pool with one slowed node normalized = %v, want close to 1", one)
	}
	bsp := runNormalized(t, bspSpec(), slowedVector(8, 1, 2.0), 13)
	if one >= bsp {
		t.Errorf("task pool (%v) should absorb interference better than BSP (%v)", one, bsp)
	}
}

// Stages sits between: the worst nodes dominate stage tails, so a single
// slowed node hurts more than TaskPool but the app still balances within
// waves.
func TestStagesIntermediatePropagation(t *testing.T) {
	pool := runNormalized(t, taskPoolSpec(), slowedVector(8, 1, 2.0), 17)
	st := runNormalized(t, stagesSpec(), slowedVector(8, 1, 2.0), 17)
	bsp := runNormalized(t, bspSpec(), slowedVector(8, 1, 2.0), 17)
	if !(pool < st && st <= bsp*1.05) {
		t.Errorf("expected pool (%v) < stages (%v) <= bsp (%v)", pool, st, bsp)
	}
}

func TestSpeculativeExecutionHelps(t *testing.T) {
	withSpec := taskPoolSpec()
	noSpec := taskPoolSpec()
	noSpec.Speculative = false
	// A heavily skewed environment: one node 4x slower.
	sd := slowedVector(8, 1, 4.0)
	net := netsim.TenGbE()
	a, err := withSpec.Run(Params{Slowdown: sd, Net: net, RNG: sim.NewRNG(3)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := noSpec.Run(Params{Slowdown: sd, Net: net, RNG: sim.NewRNG(3)})
	if err != nil {
		t.Fatal(err)
	}
	if a > b+1e-9 {
		t.Errorf("speculation should not hurt: with=%v without=%v", a, b)
	}
}

func TestIndependentMeanSemantics(t *testing.T) {
	s := Spec{Name: "ind", Engine: Independent, BatchSec: 100}
	got, err := s.Run(Params{
		Slowdown: []float64{1, 3},
		Net:      netsim.TenGbE(),
		RNG:      sim.NewRNG(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-200) > 1e-9 {
		t.Errorf("independent mean = %v, want 200", got)
	}
}

func TestNoiseZeroIsDeterministic(t *testing.T) {
	s := bspSpec()
	s.NoiseSigma = 0
	net := netsim.TenGbE()
	sd := slowedVector(4, 2, 1.5)
	a, err := s.Run(Params{Slowdown: sd, Net: net, RNG: sim.NewRNG(1)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(Params{Slowdown: sd, Net: net, RNG: sim.NewRNG(999)})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("zero-noise runs should not depend on seed: %v vs %v", a, b)
	}
	// Expected analytically: iterations * (IterSec*max(sd) + collectives
	// + straggler drag proportional to the mean excess slowdown).
	procs := 4 * s.ProcsPerNode
	coll := net.Allreduce(procs, s.AllreduceBytes) + 2*net.Barrier(procs)
	drag := 0.12 * s.IterSec * (0.5 + 0.5) / 4
	want := float64(s.Iterations) * (s.IterSec*1.5 + coll + drag)
	if math.Abs(a-want)/want > 1e-9 {
		t.Errorf("BSP deterministic time = %v, want %v", a, want)
	}
}

func TestSameSeedReproducible(t *testing.T) {
	for _, s := range []Spec{bspSpec(), wavefrontSpec(), taskPoolSpec(), stagesSpec()} {
		sd := slowedVector(8, 3, 1.7)
		net := netsim.TenGbE()
		a, err := s.Run(Params{Slowdown: sd, Net: net, RNG: sim.NewRNG(5)})
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Run(Params{Slowdown: sd, Net: net, RNG: sim.NewRNG(5)})
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: same seed diverged: %v vs %v", s.Name, a, b)
		}
	}
}

// Property: interference never reduces execution time, for every engine.
func TestMonotoneUnderInterferenceProperty(t *testing.T) {
	specs := []Spec{bspSpec(), wavefrontSpec(), taskPoolSpec(), stagesSpec()}
	for i := range specs {
		specs[i].NoiseSigma = 0 // isolate the structural effect
		specs[i].TaskSkewSigma = 0
	}
	f := func(kRaw, sRaw uint8, engIdx uint8) bool {
		s := specs[int(engIdx)%len(specs)]
		k := int(kRaw % 9)
		slow := 1 + float64(sRaw%30)/10
		net := netsim.TenGbE()
		base, err := s.Run(Params{Slowdown: slowedVector(8, 0, 1), Net: net, RNG: sim.NewRNG(1)})
		if err != nil {
			return false
		}
		got, err := s.Run(Params{Slowdown: slowedVector(8, k, slow), Net: net, RNG: sim.NewRNG(1)})
		if err != nil {
			return false
		}
		return got >= base-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: more interfering nodes at fixed pressure never helps
// (monotonicity in k), noise suppressed.
func TestMonotoneInNodesProperty(t *testing.T) {
	specs := []Spec{bspSpec(), wavefrontSpec(), taskPoolSpec(), stagesSpec()}
	for i := range specs {
		specs[i].NoiseSigma = 0
		specs[i].TaskSkewSigma = 0
	}
	net := netsim.TenGbE()
	for _, s := range specs {
		prev := 0.0
		for k := 0; k <= 8; k++ {
			got, err := s.Run(Params{Slowdown: slowedVector(8, k, 1.8), Net: net, RNG: sim.NewRNG(2)})
			if err != nil {
				t.Fatal(err)
			}
			if got < prev-1e-9 {
				t.Errorf("%s: time decreased from %v to %v at k=%d", s.Name, prev, got, k)
			}
			prev = got
		}
	}
}
