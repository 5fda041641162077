package measure

import "sync"

// Cache is a content-addressed store of completed measurements. A key is
// the env fingerprint and the measurement's host layout id (job.layoutID),
// so two requests share an entry when they lay out the same hosts on
// equally configured environments, which forces the same value, on a
// background-interfered environment too: its draws are a function of the
// layout.
//
// A Cache lives for one run. It is safe for concurrent use and may be
// shared across several environments.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey][]float64
	hits    uint64
	misses  uint64
}

// cacheKey is the content address of one measurement: two words, so
// building and looking up a key allocates nothing however long the request
// it encodes; the zero key means "not cached".
type cacheKey struct{ env, layout uint64 }

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
