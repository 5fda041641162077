package app

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// factorSpecs covers every engine, with and without jitter: a σ = 0 spec
// must read factors of exactly 1 from a table that draws and stores
// nothing.
func factorSpecs() []Spec {
	noisy := []Spec{bspSpec(), wavefrontSpec(), taskPoolSpec(), stagesSpec(),
		{Name: "batch", Engine: Independent, BatchSec: 100, NoiseSigma: 0.02}}
	specs := noisy
	for _, s := range noisy {
		s.Name += "-quiet"
		s.NoiseSigma, s.TaskSkewSigma = 0, 0
		specs = append(specs, s)
	}
	return specs
}

// factorCase is one run of a spec on a fixed run stream.
type factorCase struct {
	width int
	sd    []float64
}

// factorCases interleaves widths 1, 8 and 32, so a shared table widens
// mid-use and narrower runs then read it, with slowdowns that move the
// task engines' schedules (and so how far each node's sequence is read).
func factorCases() []factorCase {
	rng := sim.NewRNG(5).Stream("cases")
	var cases []factorCase
	for round := 0; round < 3; round++ {
		for _, w := range []int{1, 8, 32, 8, 1} {
			sd := make([]float64, w)
			for i := range sd {
				sd[i] = 1 + 3*rng.Float64()*float64(rng.Intn(2))
			}
			cases = append(cases, factorCase{w, sd})
		}
	}
	return cases
}

// freshRun runs s on a newly derived run stream and no shared table.
func freshRun(t testing.TB, s Spec, sd []float64) float64 {
	t.Helper()
	v, err := s.Run(Params{Slowdown: sd, Net: netsim.TenGbE(), RNG: sim.NewRNG(41).Stream("run")})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// sharedRun runs s on the same run stream, reading f.
func sharedRun(s Spec, sd []float64, f *Factors) (float64, error) {
	return s.Run(Params{Slowdown: sd, Net: netsim.TenGbE(), RNG: sim.NewRNG(41).Stream("run"), Factors: f})
}

// TestSharedFactorsMatchFreshRuns: a run that reads a shared table returns
// the bits of the same run over a freshly derived stream, for every
// engine, at every width the table has been widened to, whatever earlier
// runs filled.
func TestSharedFactorsMatchFreshRuns(t *testing.T) {
	for _, s := range factorSpecs() {
		f := new(Factors)
		for i, c := range factorCases() {
			got, err := sharedRun(s, c.sd, f)
			if err != nil {
				t.Fatalf("%s case %d: %v", s.Name, i, err)
			}
			if want := freshRun(t, s, c.sd); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s case %d (width %d): shared table %v, fresh stream %v", s.Name, i, c.width, got, want)
			}
		}
		if s.NoiseSigma == 0 && s.TaskSkewSigma == 0 && stored(f) != 0 {
			t.Errorf("%s: a σ = 0 table stored %d factors", s.Name, stored(f))
		}
	}
}

// stored counts the factors a table holds.
func stored(f *Factors) int {
	n := 0
	for _, q := range f.node {
		n += q.n
	}
	for _, q := range f.stage {
		n += q.n
	}
	return n
}

// TestSharedFactorsConcurrentFill: eight goroutines run one spec on one
// run stream at once, over one cold table, at widths that make them grow
// the same sequences concurrently (run it under -race). Every run must
// return the bits of its fresh-stream twin.
func TestSharedFactorsConcurrentFill(t *testing.T) {
	for _, s := range factorSpecs() {
		cases := factorCases()
		want := make([]float64, len(cases))
		for i, c := range cases {
			want[i] = freshRun(t, s, c.sd)
		}
		f := new(Factors)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range cases {
					i := (k + 5*g) % len(cases) // another order per goroutine
					got, err := sharedRun(s, cases[i].sd, f)
					if err != nil {
						t.Error(err)
						return
					}
					if math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Errorf("%s case %d, goroutine %d: %v, fresh stream %v", s.Name, i, g, got, want[i])
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestFactorsRejectAnotherStream: a table belongs to the run stream and
// sigmas of its first run; a run on another stream, or of a spec with
// other sigmas, fails instead of reading factors that are not its own.
func TestFactorsRejectAnotherStream(t *testing.T) {
	s := bspSpec()
	sd := slowedVector(4, 1, 2)
	f := new(Factors)
	if _, err := sharedRun(s, sd, f); err != nil {
		t.Fatal(err)
	}
	other := s
	other.NoiseSigma *= 2
	if _, err := sharedRun(other, sd, f); err == nil || !strings.Contains(err.Error(), "jitter table") {
		t.Errorf("other sigma: err = %v", err)
	}
	if _, err := s.Run(Params{Slowdown: sd, Net: netsim.TenGbE(), RNG: sim.NewRNG(42), Factors: f}); err == nil {
		t.Error("another run stream read the table")
	}
	if _, err := sharedRun(s, sd, f); err != nil {
		t.Errorf("the table's own stream after a rejected run: %v", err)
	}
}

// TestMakespanMonotoneInSlowdownProperty: on a fixed run stream, the BSP,
// wavefront and independent makespans are non-decreasing in each node's
// slowdown, exactly — every step of their arithmetic is a rounded
// product, sum or maximum of non-negative terms, and rounding is monotone.
// Widths run from 1 to 32 over random slowdown vectors, and every case
// runs twice, through one shared table per spec and over a fresh stream,
// with equal bits. The task engines are not monotone by design — a slower
// node can reorder dispatch and shorten the makespan (Graham's scheduling
// anomalies) — so they are not covered here.
func TestMakespanMonotoneInSlowdownProperty(t *testing.T) {
	specs := []Spec{bspSpec(), wavefrontSpec(), {Name: "batch", Engine: Independent, BatchSec: 100, NoiseSigma: 0.02}}
	tables := make([]*Factors, len(specs))
	for i := range tables {
		tables[i] = new(Factors)
	}
	run := func(e int, sd []float64) (float64, bool) {
		shared, err := sharedRun(specs[e], sd, tables[e])
		if err != nil {
			t.Error(err)
			return 0, false
		}
		return shared, math.Float64bits(shared) == math.Float64bits(freshRun(t, specs[e], sd))
	}
	prop := func(engine, width, node uint8, raw [32]uint16, bump uint16) bool {
		e := int(engine) % len(specs)
		n := 1 + int(width)%32
		sd := make([]float64, n)
		for i := range sd {
			sd[i] = 1 + float64(raw[i])/8192 // [1, 9)
		}
		before, ok := run(e, sd)
		if !ok {
			return false
		}
		sd[int(node)%n] += float64(bump) / 8192
		after, ok := run(e, sd)
		return ok && after >= before
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
