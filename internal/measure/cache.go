package measure

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
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
// A Cache is safe for concurrent use and may be shared across several
// environments and persisted to disk between runs with SaveFile/LoadFile.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey][]float64
	hits    uint64
	misses  uint64
}

// cacheKey is the content address of one measurement. A fixed-size value,
// so building and looking up a key allocates nothing however long the
// request it encodes; the zero key means "not cached". In a cache file it
// is 64 lower-case hex digits.
type cacheKey [sha256.Size]byte

// MarshalText renders the key as hex, the form a cache file stores.
func (k cacheKey) MarshalText() ([]byte, error) {
	return hex.AppendEncode(nil, k[:]), nil
}

// UnmarshalText parses the hex form MarshalText writes.
func (k *cacheKey) UnmarshalText(text []byte) error {
	if len(text) != hex.EncodedLen(len(k)) {
		return fmt.Errorf("measure: cache key %q is not %d hex digits", text, hex.EncodedLen(len(k)))
	}
	_, err := hex.Decode(k[:], text)
	return err
}

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

// cacheFileVersion guards the on-disk format; keys additionally digest the
// environment fingerprint version ("v1|..."), so either bump invalidates
// stale files. Version 1 files held the keys' plain-text encodings.
const cacheFileVersion = 2

type cacheFile struct {
	Version int                    `json:"version"`
	Entries map[cacheKey][]float64 `json:"entries"`
}

// SaveFile persists the cache as JSON. Go's JSON encoding round-trips
// float64 values exactly, so a reloaded cache replays bit-identical
// measurements.
func (c *Cache) SaveFile(path string) error {
	c.mu.Lock()
	f := cacheFile{Version: cacheFileVersion, Entries: c.entries}
	data, err := json.Marshal(f)
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("measure: encoding cache: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile merges a previously saved cache file into the cache. A missing
// file is not an error (first run); a version mismatch discards the file's
// contents rather than serving stale measurements.
func (c *Cache) LoadFile(path string) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	// The version is read first: an older file's keys need not parse.
	var head struct {
		Version int             `json:"version"`
		Entries json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("measure: decoding cache %s: %w", path, err)
	}
	if head.Version != cacheFileVersion {
		return nil
	}
	var entries map[cacheKey][]float64
	if len(head.Entries) > 0 {
		if err := json.Unmarshal(head.Entries, &entries); err != nil {
			return fmt.Errorf("measure: decoding cache %s: %w", path, err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, v := range entries {
		if _, ok := c.entries[k]; !ok {
			c.entries[k] = v
		}
	}
	return nil
}
