package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG is a deterministic random stream. Experiments derive independent
// substreams by name so that adding a new consumer of randomness does not
// perturb the draws seen by existing consumers — a property plain shared
// rand.Rand lacks and which keeps every figure in EXPERIMENTS.md stable.
//
// The underlying source is seeded lazily on the first draw: seeding the
// legacy math/rand generator is far more expensive than deriving a
// stream, and many derived streams (per-node jitter streams with zero
// noise, for one) are never drawn from at all. Laziness never changes a
// sequence — a source seeded with the same seed produces the same draws
// no matter when it is created.
type RNG struct {
	seed int64
	r    *rand.Rand
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed}
}

// Reset re-targets g at seed: from here on it is indistinguishable from
// NewRNG(seed), but a generator left by earlier draws is reseeded in
// place instead of being reallocated — a search that runs hundreds of
// short-lived streams resets a pooled RNG rather than allocating a 5 KB
// source for each.
func (g *RNG) Reset(seed int64) {
	g.seed = seed
	if g.r != nil {
		g.r.Seed(seed)
	}
}

// src returns the underlying generator, seeding it on first use. The
// source is fastSource — bit-identical draws to rand.NewSource(g.seed)
// at a fraction of the seeding cost (see rngsource.go).
func (g *RNG) src() *rand.Rand {
	if g.r == nil {
		g.r = newRand(g.seed)
	}
	return g.r
}

// Seed returns the seed this stream was created with.
func (g *RNG) Seed() int64 { return g.seed }

// Stream derives an independent substream identified by name. Identical
// (seed, name) pairs always produce identical streams.
func (g *RNG) Stream(name string) *RNG {
	h := fnv.New64a()
	// Mix the parent seed into the hash so differently-seeded parents
	// produce unrelated children for the same name.
	var buf [8]byte
	s := uint64(g.seed)
	for i := 0; i < 8; i++ {
		buf[i] = byte(s >> (8 * uint(i)))
	}
	h.Write(buf[:])
	h.Write([]byte(name))
	return NewRNG(int64(h.Sum64()))
}

// StreamN derives an indexed substream, useful for per-node or per-sample
// streams.
func (g *RNG) StreamN(name string, n int) *RNG {
	h := fnv.New64a()
	var buf [8]byte
	s := uint64(g.seed)
	for i := 0; i < 8; i++ {
		buf[i] = byte(s >> (8 * uint(i)))
	}
	h.Write(buf[:])
	h.Write([]byte(name))
	var nb [8]byte
	u := uint64(n)
	for i := 0; i < 8; i++ {
		nb[i] = byte(u >> (8 * uint(i)))
	}
	h.Write(nb[:])
	return NewRNG(int64(h.Sum64()))
}

// Float64 returns a uniform draw in [0,1).
func (g *RNG) Float64() float64 { return g.src().Float64() }

// Intn returns a uniform draw in [0,n). It panics if n <= 0, matching
// math/rand semantics.
func (g *RNG) Intn(n int) int { return g.src().Intn(n) }

// Uniform returns a uniform draw in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.src().Float64() }

// Normal returns a normal draw with the given mean and standard deviation.
func (g *RNG) Normal(mean, sd float64) float64 { return mean + sd*g.src().NormFloat64() }

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

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.src().Perm(n) }

// PermInto fills m with a random permutation of [0,len(m)), consuming
// exactly the draws Perm(len(m)) does and producing the same order, with
// no allocation.
func (g *RNG) PermInto(m []int32) {
	r := g.src()
	for i := range m {
		j := r.Intn(i + 1)
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
