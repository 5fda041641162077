package sim

import (
	"math/rand"
	"testing"
)

// TestFastSourceMatchesStdlib pins fastSource to math/rand's default
// source: for a spread of seeds (including the 0 and negative special
// cases in Seed), every raw word and every derived rand.Rand draw must be
// bit-identical. This is the load-bearing equivalence — all golden
// experiment outputs flow through these draws.
func TestFastSourceMatchesStdlib(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, 89482311, int31max, int31max + 1, -int31max,
		7777777777, -123456789012345, 1<<62 + 3}
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		fast := &fastSource{}
		fast.Seed(seed)
		for i := 0; i < 2000; i++ {
			if got, want := fast.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %d != stdlib %d", seed, i, got, want)
			}
		}
	}
	// Through rand.Rand: the consuming methods must see the same word
	// stream, including Int63/Uint64 mixing and the ziggurat rejection
	// loops in NormFloat64/ExpFloat64.
	for _, seed := range seeds {
		ref := rand.New(rand.NewSource(seed))
		fast := newRand(seed)
		for i := 0; i < 500; i++ {
			if got, want := fast.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, got, want)
			}
			if got, want := fast.NormFloat64(), ref.NormFloat64(); got != want {
				t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", seed, i, got, want)
			}
			if got, want := fast.ExpFloat64(), ref.ExpFloat64(); got != want {
				t.Fatalf("seed %d draw %d: ExpFloat64 %v != %v", seed, i, got, want)
			}
			if got, want := fast.Intn(i+7), ref.Intn(i+7); got != want {
				t.Fatalf("seed %d draw %d: Intn %d != %d", seed, i, got, want)
			}
		}
		gp, rp := fast.Perm(31), ref.Perm(31)
		for i := range rp {
			if gp[i] != rp[i] {
				t.Fatalf("seed %d: Perm %v != %v", seed, gp, rp)
			}
		}
	}
}

// TestLehmerMatchesSchrage pins the Mersenne-fold step function to the
// Schrage-division form the stdlib uses, over the recurrence's own orbit
// and the range boundaries.
func TestLehmerMatchesSchrage(t *testing.T) {
	schrage := func(x int32) int32 {
		const (
			a = 48271
			q = 44488
			r = 3399
		)
		hi := x / q
		lo := x % q
		x = a*lo - r*hi
		if x < 0 {
			x += int31max
		}
		return x
	}
	for _, start := range []int32{1, 2, 89482311, int31max - 1, 1234567} {
		x, y := start, start
		for i := 0; i < 5000; i++ {
			x, y = lehmer(x), schrage(y)
			if x != y {
				t.Fatalf("start %d step %d: lehmer %d != schrage %d", start, i, x, y)
			}
		}
	}
}

// TestLehmerCubed pins the three-step multiplier to 48271³ mod 2³¹−1 and
// lehmer3 to three single steps over the range boundaries and an orbit.
func TestLehmerCubed(t *testing.T) {
	a := uint64(1)
	for i := 0; i < 3; i++ {
		a = a * 48271 % int31max
	}
	if a != lehmerCubed {
		t.Fatalf("lehmerCubed = %d, want 48271^3 mod (2^31-1) = %d", lehmerCubed, a)
	}
	for _, start := range []int32{1, 2, 89482311, int31max - 1, 1234567} {
		x := start
		for i := 0; i < 5000; i++ {
			want := lehmer(lehmer(lehmer(x)))
			if got := lehmer3(x); got != want {
				t.Fatalf("start %d step %d: lehmer3(%d) = %d, want %d", start, i, x, got, want)
			}
			x = want
		}
	}
}

// TestRNGResetMatchesFresh: a Reset stream is indistinguishable from a
// new one, whether or not it had drawn before.
func TestRNGResetMatchesFresh(t *testing.T) {
	used := NewRNG(5)
	used.Intn(10)
	var zero RNG
	for _, g := range []*RNG{used, &zero} {
		g.Reset(42)
		if g.Seed() != 42 {
			t.Fatalf("Seed() = %d after Reset(42)", g.Seed())
		}
		want := NewRNG(42)
		for i := 0; i < 700; i++ { // past one full turn of the 607-word state
			if a, b := g.Float64(), want.Float64(); a != b {
				t.Fatalf("draw %d: reset stream %v, fresh stream %v", i, a, b)
			}
		}
		if a, b := g.Stream("x").Seed(), want.Stream("x").Seed(); a != b {
			t.Fatalf("derived stream seeds differ: %d vs %d", a, b)
		}
	}
}

// TestPermIntoMatchesPerm: same draws, same order as Perm.
func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 31, 200} {
		a, b := NewRNG(9), NewRNG(9)
		want := a.Perm(n)
		got := make([]int32, n)
		b.PermInto(got)
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("n=%d: PermInto %v != Perm %v", n, got, want)
			}
		}
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("n=%d: streams diverge after the permutation", n)
		}
	}
}

var seedSink fastSource

// BenchmarkFastSourceSeed measures one full seeding (the 1841-step
// Lehmer recurrence folded into the 607-word state).
func BenchmarkFastSourceSeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		seedSink.Seed(int64(i) + 1)
	}
}
