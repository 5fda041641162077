package sim

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random stream. Experiments derive independent
// substreams by name so that adding a new consumer of randomness does not
// perturb the draws seen by existing consumers — a property plain shared
// rand.Rand lacks and which keeps every figure in EXPERIMENTS.md stable.
//
// The underlying source is allocated on the first draw — many derived
// streams (per-node jitter streams with zero noise, for one) are never
// drawn from at all — and seeded lazily after that (rngsource.go): a
// stream costs the words it draws, not the 5 KB state behind them.
// Neither laziness changes a sequence — a source seeded with the same
// seed produces the same draws no matter when it is created.
//
// RNG stays two words (seed and one pointer): a third field would move
// every NewRNG into a larger size class, and reproductions allocate a
// great many of them.
type RNG struct {
	seed int64
	st   *rngState
}

// rngState is a stream's generator in one allocation: the source and the
// rand.Rand over it. Intn and PermInto, the search's hot draws, read the
// source directly; every other method goes through r, which consumes the
// same words.
type rngState struct {
	src fastSource
	r   rand.Rand
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed}
}

// Reset re-targets g at seed: from here on it is indistinguishable from
// NewRNG(seed). A source left by earlier draws is kept and re-seeded in
// O(1), so code that runs many short-lived streams resets pooled RNGs
// (see StreamNInto) instead of allocating a source for each.
func (g *RNG) Reset(seed int64) {
	g.seed = seed
	if g.st != nil {
		g.st.r.Seed(seed)
	}
}

// state returns the generator, allocating and seeding it on first use.
// The source is fastSource — bit-identical draws to
// rand.NewSource(g.seed).
func (g *RNG) state() *rngState {
	if g.st == nil {
		st := &rngState{}
		st.src.Seed(g.seed)
		st.r = *rand.New(&st.src)
		g.st = st
	}
	return g.st
}

// src returns the rand.Rand over the stream's source.
func (g *RNG) src() *rand.Rand { return &g.state().r }

// Seed returns the seed this stream was created with.
func (g *RNG) Seed() int64 { return g.seed }

// FNV-1a, 64 bit — the parameters of hash/fnv.New64a.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds v into h as its eight little-endian bytes.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ v&0xff) * fnvPrime64
		v >>= 8
	}
	return h
}

// childHash is the FNV-1a hash of the parent seed followed by name. The
// seed goes in first so differently-seeded parents produce unrelated
// children for the same name.
func (g *RNG) childHash(name string) uint64 {
	h := fnvWord(fnvOffset64, uint64(g.seed))
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime64
	}
	return h
}

// Stream derives an independent substream identified by name. Identical
// (seed, name) pairs always produce identical streams.
func (g *RNG) Stream(name string) *RNG {
	return NewRNG(int64(g.childHash(name)))
}

// StreamN derives an indexed substream, useful for per-node or per-sample
// streams.
func (g *RNG) StreamN(name string, n int) *RNG {
	return NewRNG(int64(fnvWord(g.childHash(name), uint64(n))))
}

// StreamNInto re-targets dst at the stream StreamN(name, n) returns,
// keeping dst's source (see Reset), and allocates nothing.
func (g *RNG) StreamNInto(dst *RNG, name string, n int) {
	dst.Reset(int64(fnvWord(g.childHash(name), uint64(n))))
}

// Float64 returns a uniform draw in [0,1).
func (g *RNG) Float64() float64 { return g.src().Float64() }

// Intn returns a uniform draw in [0,n), consuming exactly the words
// rand.Rand.Intn does and returning the same value. It panics if n <= 0,
// matching math/rand semantics.
func (g *RNG) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	return g.state().src.intn(n)
}

// Uniform returns a uniform draw in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.src().Float64() }

// LogNormal returns a draw whose logarithm is normal with parameters mu and
// sigma. For small sigma it is a gentle multiplicative jitter around
// exp(mu), which is how per-iteration compute noise is modelled.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.src().NormFloat64())
}

// JitterAround1 returns a lognormal multiplicative factor with unit mean
// (mu chosen as -sigma^2/2 so E[X] = 1) and the given sigma.
func (g *RNG) JitterAround1(sigma float64) float64 {
	if sigma == 0 {
		return 1
	}
	return g.LogNormal(-sigma*sigma/2, sigma)
}

// SkipJitter advances g past n JitterAround1(sigma) draws without computing
// them: the stream then continues exactly as if they had been drawn.
func (g *RNG) SkipJitter(n int, sigma float64) {
	if sigma == 0 || n <= 0 {
		return
	}
	r := g.src()
	for ; n > 0; n-- {
		r.NormFloat64()
	}
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.src().Perm(n) }

// PermInto fills m with a random permutation of [0,len(m)), consuming
// exactly the draws Perm(len(m)) does and producing the same order, with
// no allocation.
func (g *RNG) PermInto(m []int32) {
	s := &g.state().src
	for i := range m {
		j := s.intn(i + 1)
		m[i] = m[j]
		m[j] = int32(i)
	}
}

// Shuffle randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.src().Shuffle(n, swap) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.src().Float64() < p }

// Exp returns an exponential draw with the given mean (not rate). A
// non-positive mean returns 0.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.src().ExpFloat64() * mean
}
