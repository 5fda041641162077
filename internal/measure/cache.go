package measure

import (
	"crypto/sha256"
	"sync"
)

// Cache is a content-addressed store of completed measurements. Keys are
// SHA-256 digests of an exact encoding built by the Env key functions —
// environment fingerprint first, then the measurement kind and its
// bit-precise request parameters — so two requests share an entry only
// when a fresh measurement would be forced to produce the same value
// (background-interfered environments are the deliberate exception: their
// entries pin the value of the first nonce that computed one, which is the
// cross-experiment dedup the EC2 sweeps rely on; see docs/PERFORMANCE.md).
//
// A Cache lives for one run. It is safe for concurrent use and may be
// shared across several environments.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey][]float64
	hits    uint64
	misses  uint64
}

// cacheKey is the content address of one measurement. A fixed-size value,
// so building and looking up a key allocates nothing however long the
// request it encodes; the zero key means "not cached".
type cacheKey [sha256.Size]byte

// NewCache returns an empty measurement cache.
func NewCache() *Cache {
	return &Cache{entries: map[cacheKey][]float64{}}
}

// get returns the stored vector for key. The returned slice is shared:
// callers must not mutate it.
func (c *Cache) get(key cacheKey) ([]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// put stores a measurement vector; first write wins so replayed
// measurements can never flip an entry.
func (c *Cache) put(key cacheKey, v []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok {
		c.entries[key] = v
	}
}

// creditHit counts a hit that resolved without a lookup (a batch aliasing
// a duplicate request onto an in-flight twin).
func (c *Cache) creditHit() {
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
}

// Hits returns the number of lookups answered from the cache.
func (c *Cache) Hits() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Misses returns the number of lookups that fell through to measurement.
func (c *Cache) Misses() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

// Len returns the number of stored measurements.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
