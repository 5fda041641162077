package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// stdSeeds covers the special cases in Seed: 0, negatives, and values at
// and past the 2³¹−1 modulus.
var stdSeeds = []int64{0, 1, -1, 42, 89482311, int31max, int31max + 1, -int31max,
	7777777777, -123456789012345, 1<<62 + 3}

// reseedPoints are draw counts at which a source is re-seeded in the
// tests: around the two boundaries of the lazy first pass (draws 0–272
// compute two words, 273–333 one, from 334 on none), one full turn of the
// state, and well past it.
var reseedPoints = []int{0, 1, 272, 273, 274, 333, 334, 335, 607, 2000}

// TestFastSourceMatchesStdlib pins fastSource to math/rand's default
// source: for a spread of seeds, every raw word and every derived
// rand.Rand draw must be bit-identical — from a fresh source and from a
// dirty one re-seeded after any number of draws, which is how pooled
// streams live. This is the load-bearing equivalence — all golden
// experiment outputs flow through these draws.
func TestFastSourceMatchesStdlib(t *testing.T) {
	for _, seed := range stdSeeds {
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
	for _, seed := range stdSeeds {
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
	// A dirty source: k draws under one seed, then Seed again. No word the
	// first life left behind may surface in the second.
	for _, k := range reseedPoints {
		for i, seed := range stdSeeds {
			fast := &fastSource{}
			fast.Seed(stdSeeds[(i+1)%len(stdSeeds)])
			for j := 0; j < k; j++ {
				fast.Uint64()
			}
			fast.Seed(seed)
			ref := rand.NewSource(seed).(rand.Source64)
			for j := 0; j < 2000; j++ {
				if got, want := fast.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("re-seeded to %d after %d draws, draw %d: Uint64 %d != stdlib %d", seed, k, j, got, want)
				}
			}
		}
	}
}

// TestLehmerPow pins the aⁱ table to 607 iterated lehmer3 steps, and those
// to plain modular arithmetic.
func TestLehmerPow(t *testing.T) {
	x, ref := uint32(1), uint64(1)
	for i, got := range lehmerPow {
		if got != x || uint64(got) != ref {
			t.Fatalf("lehmerPow[%d] = %d, want %d (iterated lehmer3) = %d (a^i mod 2^31-1)", i, got, x, ref)
		}
		x = lehmer3(x)
		ref = ref * lehmerCubed % int31max
	}
}

// FuzzFastSourceReseed: a source that drew k words under seedA and was
// then re-seeded to seedB is indistinguishable from the stdlib source
// seeded with seedB.
func FuzzFastSourceReseed(f *testing.F) {
	for _, k := range reseedPoints {
		f.Add(int64(7), uint16(k), int64(-3))
	}
	f.Add(int64(0), uint16(40), int64(int31max))
	f.Fuzz(func(t *testing.T, seedA int64, k uint16, seedB int64) {
		fast := &fastSource{}
		fast.Seed(seedA)
		for i := 0; i < int(k)%2500; i++ {
			fast.Uint64()
		}
		fast.Seed(seedB)
		ref := rand.NewSource(seedB).(rand.Source64)
		for i := 0; i < 700; i++ { // past one full turn of the state
			if got, want := fast.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d, %d draws, re-seed %d, draw %d: %d != stdlib %d", seedA, k, seedB, i, got, want)
			}
		}
	})
}

// TestLehmerMatchesSchrage pins the Mersenne-fold step function to the
// Schrage-division form the stdlib uses, over the recurrence's own orbit
// and the range boundaries.
func TestLehmerMatchesSchrage(t *testing.T) {
	schrage := func(u uint32) uint32 {
		const (
			a = 48271
			q = 44488
			r = 3399
		)
		x := int32(u)
		hi := x / q
		lo := x % q
		x = a*lo - r*hi
		if x < 0 {
			x += int31max
		}
		return uint32(x)
	}
	for _, start := range []uint32{1, 2, 89482311, int31max - 1, 1234567} {
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
	for _, start := range []uint32{1, 2, 89482311, int31max - 1, 1234567} {
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
// new one, whether it never drew (no source yet) or stopped anywhere in
// or past the lazy first pass.
func TestRNGResetMatchesFresh(t *testing.T) {
	var zero RNG
	streams := []*RNG{&zero}
	for _, k := range reseedPoints {
		g := NewRNG(5)
		for i := 0; i < k; i++ {
			g.Float64()
		}
		streams = append(streams, g)
	}
	for i, g := range streams {
		g.Reset(42)
		if g.Seed() != 42 {
			t.Fatalf("Seed() = %d after Reset(42)", g.Seed())
		}
		want := rand.New(rand.NewSource(42))
		for j := 0; j < 2000; j++ {
			// NormFloat64 draws a data-dependent number of words.
			if a, b := g.LogNormal(0, 1), math.Exp(want.NormFloat64()); a != b {
				t.Fatalf("stream %d draw %d: reset stream %v, fresh stdlib %v", i, j, a, b)
			}
		}
		gp, wp := g.Perm(50), want.Perm(50)
		for j := range wp {
			if gp[j] != wp[j] {
				t.Fatalf("stream %d: Perm %v, fresh stdlib %v", i, gp, wp)
			}
		}
		if a, b := g.Stream("x").Seed(), NewRNG(42).Stream("x").Seed(); a != b {
			t.Fatalf("derived stream seeds differ: %d vs %d", a, b)
		}
	}
}

// TestStreamSeedsAreFNV pins the derivation to what it has always been —
// hash/fnv's 64-bit FNV-1a over the parent seed's little-endian bytes,
// the name, and for an indexed stream the index's — and StreamNInto to
// StreamN.
func TestStreamSeedsAreFNV(t *testing.T) {
	le := func(v uint64) []byte {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		return b[:]
	}
	dst := NewRNG(99)
	dst.Float64() // a live source that StreamNInto must re-seed
	for _, seed := range []int64{0, 1, -1, 2016, 1<<62 + 3} {
		for _, name := range []string{"", "node", "skew", "a\x00b"} {
			parent := NewRNG(seed)
			h := fnv.New64a()
			h.Write(le(uint64(seed)))
			h.Write([]byte(name))
			if got, want := parent.Stream(name).Seed(), int64(h.Sum64()); got != want {
				t.Fatalf("Stream(%q) of seed %d = %d, want %d", name, seed, got, want)
			}
			for _, n := range []int{0, 1, 7, -1, 1 << 40} {
				hn := fnv.New64a()
				hn.Write(le(uint64(seed)))
				hn.Write([]byte(name))
				hn.Write(le(uint64(n)))
				child := parent.StreamN(name, n)
				if got, want := child.Seed(), int64(hn.Sum64()); got != want {
					t.Fatalf("StreamN(%q, %d) of seed %d = %d, want %d", name, n, seed, got, want)
				}
				parent.StreamNInto(dst, name, n)
				if dst.Seed() != child.Seed() {
					t.Fatalf("StreamNInto(%q, %d) seed %d, StreamN %d", name, n, dst.Seed(), child.Seed())
				}
				for i := 0; i < 40; i++ {
					if a, b := dst.Float64(), child.Float64(); a != b {
						t.Fatalf("StreamNInto(%q, %d) draw %d: %v, StreamN %v", name, n, i, a, b)
					}
				}
			}
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

// BenchmarkFastSourceSeed measures what a derived stream costs: "seed" is
// re-targeting alone, "seed+32draws" the measured traffic shape (nine in
// ten of a reproduction's streams draw fewer than 64 words, most 16–63),
// each draw computing the state words it reads.
func BenchmarkFastSourceSeed(b *testing.B) {
	b.Run("seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seedSink.Seed(int64(i) + 1)
		}
	})
	b.Run("seed+32draws", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seedSink.Seed(int64(i) + 1)
			for j := 0; j < 32; j++ {
				seedSink.Int63()
			}
		}
	})
}
