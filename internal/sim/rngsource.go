package sim

import "math/rand"

// fastSource is a drop-in replacement for math/rand's default Source that
// produces the bit-identical draw sequence for every seed while seeding
// roughly an order of magnitude faster. Stream derivation (Stream/StreamN)
// creates a short-lived generator per derived stream, so this repository
// seeds constantly — profiling showed the standard library's Seed, which
// evaluates the Lehmer recurrence x' = 48271·x mod 2³¹−1 with Schrage
// division 1841 times per call, dominating the EC2 experiments. The
// recurrence here is computed with a single 64-bit multiply and a Mersenne
// fold instead (2³¹−1 is a Mersenne prime, so a·x mod 2³¹−1 is the sum of
// the product's low and high 31-bit halves), which is exact for the full
// input range and free of integer division.
//
// The generator itself — an additive lagged-Fibonacci generator over the
// cooked table in rngcooked.go — matches math/rand/rng.go (Copyright 2009
// The Go Authors, BSD-style license) state transition for state
// transition; TestFastSourceMatchesStdlib pins the equivalence draw by
// draw. It intentionally omits the stdlib's lock (sim.RNG is documented
// single-goroutine, like rand.New sources).
type fastSource struct {
	vec       [rngLen]int64
	tap, feed int
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int31max = 1<<31 - 1
)

// lehmer advances the seeding recurrence: 48271·x mod 2³¹−1, exactly as
// the stdlib's seedrand but via Mersenne folding. For x < 2³¹ the product
// is < 2⁴⁷, so high+low < 2³¹−1 + 2¹⁶ and one conditional subtraction
// completes the reduction.
func lehmer(x int32) int32 {
	p := uint64(x) * 48271
	v := uint32(p>>31) + uint32(p&int31max)
	if v >= int31max {
		v -= int31max
	}
	return int32(v)
}

// lehmerCubed is 48271³ mod 2³¹−1: one multiply by it advances the
// seeding recurrence three steps.
const lehmerCubed = 1291394886

// lehmer3 is three lehmer steps in one: lehmerCubed·x mod 2³¹−1. The
// product is < 2⁶², so the first fold leaves a sum < 2³² and a second
// fold plus one conditional subtraction completes the reduction.
func lehmer3(x int32) int32 {
	p := uint64(x) * lehmerCubed
	v := (p >> 31) + (p & int31max)
	v = (v >> 31) + (v & int31max)
	if v >= int31max {
		v -= int31max
	}
	return int32(v)
}

// Seed initializes the state exactly as math/rand's rngSource.Seed: 20
// warm-up steps of the Lehmer recurrence, then three draws folded into
// each of the 607 lagged-Fibonacci words against the cooked table. The
// 1821 draws form one serial dependency chain, so they are taken as
// three interleaved chains instead — word i's draws are x₀·aⁱ, x₁·aⁱ,
// x₂·aⁱ with a = lehmerCubed — which the CPU overlaps.
func (s *fastSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int31max
	if seed < 0 {
		seed += int31max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := 0; i < 20; i++ {
		x = lehmer(x)
	}
	x0 := lehmer(x)
	x1 := lehmer(x0)
	x2 := lehmer(x1)
	for i := range s.vec {
		s.vec[i] = int64(x0)<<40 ^ int64(x1)<<20 ^ int64(x2) ^ rngCooked[i]
		x0, x1, x2 = lehmer3(x0), lehmer3(x1), lehmer3(x2)
	}
}

func (s *fastSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

func (s *fastSource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// newRand returns a *rand.Rand over a freshly seeded fastSource. rand.New
// detects the Source64 implementation, so every rand.Rand method consumes
// the identical word stream it would from rand.NewSource(seed).
func newRand(seed int64) *rand.Rand {
	s := &fastSource{}
	s.Seed(seed)
	return rand.New(s)
}
