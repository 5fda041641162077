// Prediction memoization: the placement search proposes thousands of
// single-swap neighbours per second, and a swap touches at most two
// hosts — so only the applications with units on those hosts can see a
// different pressure vector. DeltaPredictPos (postings.go) re-predicts
// exactly that affected set, and PredictionCache memoizes predictions by
// (app index, pressure vector) so proposals that revisit a configuration
// skip the policy conversion and matrix lookup entirely.
//
// The cache is deliberately not a Go map keyed by bytes: profiling that
// scheme showed ~3/4 of a delta prediction spent hashing and comparing
// byte keys (aeshash + mapaccess + memequal). Instead apps are dense
// integer IDs and the (id, pressure-vector) pairs live in open-addressed
// tables whose keys are normalized float bits in a shared arena — probing
// is integer compares over contiguous memory and a lookup allocates
// nothing. Integer IDs also make the name/vector boundary structural (a
// byte key could collide for app names containing NUL), and keyBits
// folds +0/-0, which are semantically identical inputs.
package core

import (
	"fmt"
	"math"

	"repro/internal/bubble"
)

// keyBits returns the hash/equality bits of one pressure entry: the
// IEEE-754 payload with -0 normalized to +0. Every Predictor in this
// package is a pure function of the float *values*, and +0 == -0, so
// folding the two zeros can only turn a spurious miss into a hit — it
// never changes a prediction.
func keyBits(p float64) uint64 {
	if p == 0 {
		return 0 // +0 and -0 share one key
	}
	return math.Float64bits(p)
}

// mix64 is the splitmix64 finalizer: a cheap, statistically strong
// 64-bit mixer (Vigna 2015). It is the per-word hash step for the
// open-addressed tables below.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashKey folds seed (the app ID, or 0 for the combine table)
// and the normalized bits of ps into a table hash. The seed enters the
// first element's mix unmixed — one mix64 per element is plenty, and
// every stored vector is non-empty so the seed never surfaces raw.
func hashKey(seed uint64, ps []float64) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, p := range ps {
		h = mix64(h ^ keyBits(p))
	}
	return h
}

// fkEntry is one slot of a floatKeyTable. The key's normalized bits
// live in the table arena at [off, off+n); app disambiguates entries of
// the prediction table (0 in the combine table).
type fkEntry struct {
	hash uint64
	val  float64
	off  int32
	n    int32
	app  int32
	full bool
}

// floatKeyTable is an open-addressed (power-of-two, linear-probe) map
// from (app ID, float vector) to float64. Keys are stored once, as
// normalized bits appended to a shared arena, so the table is three
// flat allocations total no matter how many entries it holds — and a
// lookup touches only contiguous memory.
type floatKeyTable struct {
	entries []fkEntry
	arena   []uint64
	n       int
}

// get returns the value stored under (h, app, ps), if any.
func (t *floatKeyTable) get(h uint64, app int32, ps []float64) (float64, bool) {
	if len(t.entries) == 0 {
		return 0, false
	}
	mask := uint64(len(t.entries) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := &t.entries[i]
		if !e.full {
			return 0, false
		}
		if e.hash == h && e.app == app && int(e.n) == len(ps) &&
			keyEqual(t.arena[e.off:int(e.off)+int(e.n)], ps) {
			return e.val, true
		}
	}
}

func keyEqual(stored []uint64, ps []float64) bool {
	for i := range stored {
		if stored[i] != keyBits(ps[i]) {
			return false
		}
	}
	return true
}

// put inserts v under (h, app, ps). The key must not already be
// present (callers insert only after a failed get).
func (t *floatKeyTable) put(h uint64, app int32, ps []float64, v float64) {
	if 4*(t.n+1) > 3*len(t.entries) {
		t.grow()
	}
	off := int32(len(t.arena))
	for _, p := range ps {
		t.arena = append(t.arena, keyBits(p))
	}
	mask := uint64(len(t.entries) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := &t.entries[i]
		if !e.full {
			*e = fkEntry{hash: h, val: v, off: off, n: int32(len(ps)), app: app, full: true}
			t.n++
			return
		}
	}
}

// getW is get over a raw pre-encoded key-word slice (no per-element
// normalization; the caller owns the encoding).
func (t *floatKeyTable) getW(h uint64, app int32, kw []uint64) (float64, bool) {
	if len(t.entries) == 0 {
		return 0, false
	}
	mask := uint64(len(t.entries) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := &t.entries[i]
		if !e.full {
			return 0, false
		}
		if e.hash == h && e.app == app && int(e.n) == len(kw) &&
			wordsEqual(t.arena[e.off:int(e.off)+int(e.n)], kw) {
			return e.val, true
		}
	}
}

func wordsEqual(stored, kw []uint64) bool {
	for i := range stored {
		if stored[i] != kw[i] {
			return false
		}
	}
	return true
}

// putW is put over a raw pre-encoded key-word slice.
func (t *floatKeyTable) putW(h uint64, app int32, kw []uint64, v float64) {
	if 4*(t.n+1) > 3*len(t.entries) {
		t.grow()
	}
	off := int32(len(t.arena))
	t.arena = append(t.arena, kw...)
	mask := uint64(len(t.entries) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := &t.entries[i]
		if !e.full {
			*e = fkEntry{hash: h, val: v, off: off, n: int32(len(kw)), app: app, full: true}
			t.n++
			return
		}
	}
}

// memo returns the value stored under (app, ps), computing it with pred
// and storing it on a miss; hit reports which happened.
func (t *floatKeyTable) memo(app int32, pred Predictor, ps []float64) (v float64, hit bool, err error) {
	h := hashKey(uint64(app), ps)
	if v, ok := t.get(h, app, ps); ok {
		return v, true, nil
	}
	if v, err = pred.PredictPressures(ps); err != nil {
		return 0, false, err
	}
	t.put(h, app, ps, v)
	return v, false, nil
}

// reset empties the table, keeping the slot array and arena capacity
// for reuse; an already-empty table is left untouched.
func (t *floatKeyTable) reset() {
	if t.n == 0 {
		return
	}
	clear(t.entries)
	t.arena = t.arena[:0]
	t.n = 0
}

// grow doubles the slot array (min 64) and rehashes in place; the key
// arena is untouched, entries just carry their offsets across.
func (t *floatKeyTable) grow() {
	old := t.entries
	size := 2 * len(old)
	if size == 0 {
		size = 64
	}
	t.entries = make([]fkEntry, size)
	mask := uint64(size - 1)
	for i := range old {
		e := old[i]
		if !e.full {
			continue
		}
		for j := e.hash & mask; ; j = (j + 1) & mask {
			if !t.entries[j].full {
				t.entries[j] = e
				break
			}
		}
	}
}

// PredictionCache memoizes Predictor results for one AppsIndex binding,
// keyed by the app's dense index and the exact (canonically unit-ordered,
// host-then-slot) pressure vector its model consumes. Predictors must be
// pure functions of that vector — every model in this package is, since
// the Section 3.3 policies and the propagation matrix are deterministic —
// so a hit is bit-identical to recomputation and never perturbs a search
// trajectory.
//
// A cache is not safe for concurrent use; give each goroutine its own
// (the parallel placement search keeps one per walk). It is the only
// prediction cache: nothing is memoized across searches, because every
// Predictor in the tree costs about what a probe of a table too large for
// the processor's caches costs.
type PredictionCache struct {
	pt floatKeyTable // (app index, pressure vector) -> prediction
	ct floatKeyTable // co-runner score vector -> combined pressure
	// ptW is the pairwise path's prediction memo, keyed by the co-runner
	// index sequence at the app's units instead of the float vector
	// itself: under one AppsIndex binding the index sequence determines
	// the pressure vector exactly (each element is the single-co-runner
	// combine of that index), so a hit returns the same bits — but
	// probing needs no float normalization or hashing. Kept separate from
	// pt so the two key encodings can never alias.
	ptW floatKeyTable
	// Combine fast memos: under the paper's pairwise co-location rule a
	// unit has at most one co-runner, so the combine value is a function
	// of that co-runner's dense app index alone — a direct array load
	// instead of a hashed probe.
	c1                         []float64 // single-co-runner combine value, by app index
	c1ok                       []bool
	cEmpty                     float64 // combine value of the empty co-runner vector
	cEmptyOK                   bool
	ps, co                     []float64 // scratch pressure / co-runner score buffers
	kw                         []uint64  // scratch co-runner index key words (pairwise path)
	hits, misses               uint64
	combineHits, combineMisses uint64
}

// NewPredictionCache returns an empty cache.
func NewPredictionCache() *PredictionCache { return &PredictionCache{} }

// Reset empties the cache, keeping every table, arena, and scratch
// buffer's capacity — the pooling primitive that lets one allocation's
// worth of memo storage serve many searches. Contents never carry
// across a Reset: the memos are keyed by dense app indexes that are only
// meaningful under a single AppsIndex binding, so reuse across bindings
// must start empty. Because every memoized value is a pure function of
// its key, starting empty changes no result — only the hit/miss counters.
func (c *PredictionCache) Reset() {
	if c == nil {
		return
	}
	c.pt.reset()
	c.ct.reset()
	c.ptW.reset()
	c.c1 = c.c1[:0]
	c.c1ok = c.c1ok[:0]
	c.cEmpty, c.cEmptyOK = 0, false
	c.hits, c.misses = 0, 0
	c.combineHits, c.combineMisses = 0, 0
}

// combine returns bubble.CombineScores(co, bubble.DefaultCollision),
// memoized — the collision exponent is a package constant, so the value
// is a pure function of co. Vectors of length 0 and 1, the only lengths
// under pairwise co-location, hit direct memos (a constant, and an array
// indexed by the single co-runner's dense app index); longer vectors are
// memoized by their exact scores in the hashed table. The short keys are
// finer-grained than the scores (one per co-runner index instead of one
// per distinct score), which can only re-compute, never alias.
func (c *PredictionCache) combine(co []float64, single int32) (float64, error) {
	if c == nil {
		return bubble.CombineScores(co, bubble.DefaultCollision)
	}
	var h uint64
	switch len(co) {
	case 0:
		if c.cEmptyOK {
			c.combineHits++
			return c.cEmpty, nil
		}
	case 1:
		if int(single) < len(c.c1) && c.c1ok[single] {
			c.combineHits++
			return c.c1[single], nil
		}
	default:
		h = hashKey(0, co)
		if v, ok := c.ct.get(h, 0, co); ok {
			c.combineHits++
			return v, nil
		}
	}
	v, err := bubble.CombineScores(co, bubble.DefaultCollision)
	if err != nil {
		return 0, err
	}
	switch len(co) {
	case 0:
		c.cEmpty, c.cEmptyOK = v, true
	case 1:
		for int(single) >= len(c.c1) {
			c.c1 = append(c.c1, 0)
			c.c1ok = append(c.c1ok, false)
		}
		c.c1[single], c.c1ok[single] = v, true
	default:
		c.ct.put(h, 0, co, v)
	}
	c.combineMisses++
	return v, nil
}

// combinedOf returns the memoized combined pressure exerted on a unit
// whose sole potential co-runner is other (-1: empty slot) — the
// pairwise path's combine. The hit paths are a bool test and an array
// load; misses delegate to the generic memo fill.
func (c *PredictionCache) combinedOf(ix *AppsIndex, other int32) (float64, error) {
	if other < 0 {
		if c.cEmptyOK {
			c.combineHits++
			return c.cEmpty, nil
		}
		return c.combine(c.co[:0], -1)
	}
	if int(other) < len(c.c1) && c.c1ok[other] {
		c.combineHits++
		return c.c1[other], nil
	}
	if !ix.ok[other] {
		return 0, fmt.Errorf("core: no bubble score for %q", ix.Apps[other])
	}
	c.co = append(c.co[:0], ix.scores[other])
	return c.combine(c.co, other)
}

// predict returns the memoized prediction of app index id under
// pressures, computing and storing it on a miss. A nil cache degrades to
// a plain prediction.
func (c *PredictionCache) predict(id int32, pred Predictor, pressures []float64) (float64, error) {
	if c == nil {
		return pred.PredictPressures(pressures)
	}
	v, hit, err := c.pt.memo(id, pred, pressures)
	if err != nil {
		return 0, err
	}
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	return v, nil
}

// Stats reports prediction-memo hits and misses so far (the combine
// memo is reported separately by CombineStats).
func (c *PredictionCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits, c.misses
}

// CombineStats reports co-runner combine-memo hits and misses so far.
func (c *PredictionCache) CombineStats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.combineHits, c.combineMisses
}
