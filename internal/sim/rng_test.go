package sim

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
	"unsafe"
)

// stdSeeds covers zero, negatives and seeds that use all 64 bits.
var stdSeeds = []int64{0, 1, -1, 42, 89482311, 1<<31 - 1, 7777777777, -123456789012345, 1<<62 + 3}

// stdRand is the reference a stream must match draw for draw: the
// standard library's rand.Rand over a PCG seeded with (seed, 0).
func stdRand(seed int64) *rand.Rand { return rand.New(rand.NewPCG(uint64(seed), 0)) }

// TestRNGResetMatchesFresh: a Reset stream is indistinguishable from a
// new one, whether it never drew (no generator yet) or drew any number
// of words first.
func TestRNGResetMatchesFresh(t *testing.T) {
	var zero RNG
	streams := []*RNG{&zero}
	for _, k := range []int{0, 1, 2, 607, 2000} {
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
		want := stdRand(42)
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

// intnBounds spans powers of two, where IntN never rejects, and bounds
// just past one, where it rejects most often, below and above 2³².
var intnBounds = []int{1, 2, 3, 7, 64, 100, 1 << 30, 1<<30 + 1, 1<<31 - 1, 1 << 31, 1<<32 + 1, 1 << 40, 1<<62 + 1}

// TestIntnMatchesStdlib pins every kind of draw to the reference
// generator, interleaved on one stream so that each leaves the word
// stream where the next expects it: Intn, Float64, NormFloat64 (through
// LogNormal), ExpFloat64 (through Exp) and PermInto.
func TestIntnMatchesStdlib(t *testing.T) {
	for _, seed := range stdSeeds {
		g, ref := NewRNG(seed), stdRand(seed)
		for i := 0; i < 300; i++ {
			for _, n := range intnBounds {
				if got, want := g.Intn(n), ref.IntN(n); got != want {
					t.Fatalf("seed %d round %d: Intn(%d) = %d, stdlib %d", seed, i, n, got, want)
				}
			}
			if got, want := g.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d round %d: Float64 %v, stdlib %v", seed, i, got, want)
			}
			if got, want := g.LogNormal(0, 1), math.Exp(ref.NormFloat64()); got != want {
				t.Fatalf("seed %d round %d: NormFloat64 %v, stdlib %v", seed, i, got, want)
			}
			if got, want := g.Exp(1), ref.ExpFloat64(); got != want {
				t.Fatalf("seed %d round %d: ExpFloat64 %v, stdlib %v", seed, i, got, want)
			}
			m := make([]int32, i%40)
			g.PermInto(m)
			for j, v := range ref.Perm(len(m)) {
				if int(m[j]) != v {
					t.Fatalf("seed %d round %d: PermInto %v, stdlib Perm differs at %d", seed, i, m, j)
				}
			}
		}
	}
}

var rngSink *RNG

// TestNewRNGAllocation guards the stream's footprint: RNG is two words,
// and a new stream plus its first draw costs two allocations — the
// 16-byte RNG and one 32-byte generator state holding the PCG and the
// rand.Rand over it.
func TestNewRNGAllocation(t *testing.T) {
	if size := unsafe.Sizeof(RNG{}); size != 16 {
		t.Fatalf("RNG is %d bytes, want 16 (seed and one pointer)", size)
	}
	if n := testing.AllocsPerRun(200, func() { rngSink = NewRNG(7); rngSink.Intn(10) }); n > 2 {
		t.Errorf("NewRNG plus one draw: %v allocations, want <= 2", n)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		rngSink = NewRNG(int64(i))
		rngSink.Intn(10)
	}
	runtime.ReadMemStats(&after)
	const footprint = 16 + 48 // the RNG, and the 32-byte state with one size class to spare
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > footprint {
		t.Errorf("NewRNG plus one draw: %d bytes, want <= %d", per, footprint)
	}
}
