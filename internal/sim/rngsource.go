package sim

// fastSource is a drop-in replacement for math/rand's default Source that
// produces the bit-identical draw sequence for every seed but seeds in
// O(1). Stream derivation (Stream/StreamN) makes a short-lived generator
// per derived stream — one reproduction seeds some 126 000 of them and
// draws fewer than 64 words from nine in ten — so a stream has to cost
// what it draws, not the 607-word state behind it.
//
// The standard library's Seed runs the Lehmer recurrence
// x' = 48271·x mod 2³¹−1 for 20 warm-up steps and then folds three
// consecutive draws into each of the 607 state words. Word i is therefore
// a closed form of the three draws x₀, x₁, x₂ that follow the warm-up:
//
//	(x₀·aⁱ)<<40 ^ (x₁·aⁱ)<<20 ^ (x₂·aⁱ) ^ rngCooked[i],  a = 48271³,
//
// all products mod 2³¹−1. Seed keeps only x₀, x₁, x₂; Uint64 computes a
// word from the lehmerPow table of aⁱ the first time the generator reads
// it (see fill). 2³¹−1 is a Mersenne prime, so a product mod 2³¹−1 is the
// sum of its 31-bit digits — no integer division anywhere.
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
	// drawn counts the draws since Seed up to rngLen-rngTap, where the
	// first pass over vec ends and every word has been written.
	drawn      int
	x0, x1, x2 uint32
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int31max = 1<<31 - 1
)

// mulmod returns a·x mod 2³¹−1 for a, x < 2³¹: the product is < 2⁶², so
// the first fold leaves a sum < 2³² and a second fold plus one conditional
// subtraction completes the reduction.
func mulmod(a, x uint32) uint32 {
	p := uint64(a) * uint64(x)
	v := (p >> 31) + (p & int31max)
	v = (v >> 31) + (v & int31max)
	if v >= int31max {
		v -= int31max
	}
	return uint32(v)
}

// lehmer advances the seeding recurrence one step, exactly as the stdlib's
// seedrand (Schrage division there, a Mersenne fold here).
func lehmer(x uint32) uint32 { return mulmod(48271, x) }

// lehmerCubed is 48271³ mod 2³¹−1: one multiply by it advances the
// seeding recurrence three steps, from one state word's draw to the
// next word's.
const lehmerCubed = 1291394886

func lehmer3(x uint32) uint32 { return mulmod(lehmerCubed, x) }

// lehmerPow[i] is lehmerCubed^i mod 2³¹−1, the factor that takes x₀, x₁,
// x₂ to the three draws folded into state word i.
var lehmerPow = func() (t [rngLen]uint32) {
	t[0] = 1
	for i := 1; i < rngLen; i++ {
		t[i] = lehmer3(t[i-1])
	}
	return t
}()

// Seed re-targets the generator at seed in 23 Lehmer steps. No word of
// vec is written here and none left by an earlier seed can be read: the
// first rngLen-rngTap draws compute every word they read (fill), and by
// then every word has been overwritten.
func (s *fastSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.drawn = 0
	seed %= int31max
	if seed < 0 {
		seed += int31max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint32(seed)
	for i := 0; i < 20; i++ {
		x = lehmer(x)
	}
	s.x0 = lehmer(x)
	s.x1 = lehmer(s.x0)
	s.x2 = lehmer(s.x1)
}

// word returns state word i as Seed's recurrence would have left it.
func (s *fastSource) word(i int) int64 {
	a := lehmerPow[i]
	return int64(mulmod(a, s.x0))<<40 ^ int64(mulmod(a, s.x1))<<20 ^ int64(mulmod(a, s.x2)) ^ rngCooked[i]
}

// fill computes the seeded words the coming step reads. Over the first
// pass the step's feed index walks 333 → 0 and its tap index 606 → 273:
// draws 0–272 read two words nothing has touched; draws 273–333 read a
// tap word that draws 0–60 already wrote as their feed word, so only the
// feed word is new.
func (s *fastSource) fill() {
	feed := rngLen - rngTap - 1 - s.drawn
	s.vec[feed] = s.word(feed)
	if s.drawn < rngTap {
		tap := rngLen - 1 - s.drawn
		s.vec[tap] = s.word(tap)
	}
	s.drawn++
}

// step is the generator's state transition, as in math/rand.
func (s *fastSource) step() int64 {
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
	return x
}

// Uint64 and Int63 each carry the first-pass check so that step inlines
// into both: past the first pass a draw costs one compare more than the
// stdlib's, whichever method rand.Rand reaches it through.
func (s *fastSource) Uint64() uint64 {
	if s.drawn < rngLen-rngTap {
		s.fill()
	}
	return uint64(s.step())
}

func (s *fastSource) Int63() int64 {
	if s.drawn < rngLen-rngTap {
		s.fill()
	}
	return s.step() & rngMask
}

// intn is rand.Rand.Intn's rule for n > 0 — Int31n's rejection loop up
// to 2³¹−1, Int63n's past it — drawn without the two interface calls
// rand.Rand makes per word: same words consumed, same value.
func (s *fastSource) intn(n int) int {
	if n <= int31max {
		n := int32(n)
		if n&(n-1) == 0 {
			return int(int32(s.Int63()>>32) & (n - 1))
		}
		max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
		v := int32(s.Int63() >> 32)
		for v > max {
			v = int32(s.Int63() >> 32)
		}
		return int(v % n)
	}
	m := int64(n)
	if m&(m-1) == 0 {
		return int(s.Int63() & (m - 1))
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(m))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return int(v % m)
}
