// Prediction memoization: the placement search proposes thousands of
// single-swap neighbours per second, and a swap touches at most two
// hosts — so only the applications with units on those hosts can see a
// different pressure vector. DeltaPredictPos (postings.go) re-predicts
// exactly that affected set, and PredictionCache memoizes predictions by
// the app's dense index and the co-runners at its units, so proposals
// that revisit a configuration skip the combine, the policy conversion
// and the matrix lookup entirely.
//
// The key is integers, not floats: each unit contributes one word per
// other slot of its host, naming the app there by dense index (or the
// empty slot). Under one AppsIndex binding those words determine the
// pressure vector exactly, so a hit returns the bits a recomputation
// would. The memos are open-addressed tables over a shared word arena
// rather than Go maps keyed by bytes: profiling that scheme showed ~3/4 of
// a delta prediction spent hashing and comparing byte keys, and a probe
// here is integer compares over contiguous memory that allocates nothing.
package core

import "repro/internal/bubble"

// emptyWord is the key word of an empty slot; app index i is word i+2.
const emptyWord = 1

// mix64 is the splitmix64 finalizer: a cheap, statistically strong
// 64-bit mixer (Vigna 2015). It finishes every key hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// foldWord is the per-word step of a key hash; a key's hash starts at
// seed ^ hashSeed and ends with mix64.
func foldWord(h, w uint64) uint64 { return (h ^ w) * 0x9ddfea08eb382d69 }

const hashSeed = 0x9e3779b97f4a7c15

// hashWords is the hash of key words kw under seed.
func hashWords(seed uint64, kw []uint64) uint64 {
	h := seed ^ hashSeed
	for _, w := range kw {
		h = foldWord(h, w)
	}
	return mix64(h)
}

// wordEntry is one slot of a wordTable. The key's words live in the
// table arena at [off, off+n); app disambiguates entries of the
// prediction table (0 in the combine table).
type wordEntry struct {
	hash uint64
	val  float64
	off  int32
	n    int32
	app  int32
	full bool
}

// wordTable is an open-addressed (power-of-two, linear-probe) map from
// (app index, key words) to float64. Keys are stored once, appended to a
// shared arena, so the table is two flat allocations no matter how many
// entries it holds — and a lookup touches only contiguous memory.
type wordTable struct {
	entries []wordEntry
	arena   []uint64
	n       int
}

// get returns the value stored under (h, app, kw), if any.
func (t *wordTable) get(h uint64, app int32, kw []uint64) (float64, bool) {
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

// put inserts v under (h, app, kw). The key must not already be present
// (callers insert only after a failed get).
func (t *wordTable) put(h uint64, app int32, kw []uint64, v float64) {
	if 4*(t.n+1) > 3*len(t.entries) {
		t.grow()
	}
	off := int32(len(t.arena))
	t.arena = append(t.arena, kw...)
	mask := uint64(len(t.entries) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := &t.entries[i]
		if !e.full {
			*e = wordEntry{hash: h, val: v, off: off, n: int32(len(kw)), app: app, full: true}
			t.n++
			return
		}
	}
}

// reset empties the table, keeping the slot array and arena capacity
// for reuse; an already-empty table is left untouched.
func (t *wordTable) reset() {
	if t.n == 0 {
		return
	}
	clear(t.entries)
	t.arena = t.arena[:0]
	t.n = 0
}

// grow doubles the slot array (min 64) and rehashes in place; the key
// arena is untouched, entries just carry their offsets across.
func (t *wordTable) grow() {
	old := t.entries
	size := 2 * len(old)
	if size == 0 {
		size = 64
	}
	t.entries = make([]wordEntry, size)
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
// keyed by the app's dense index and the co-runner words at its units
// (see DeltaPredictPos). Predictors must be pure functions of their
// pressure vector — every model in this package is, since the Section
// 3.3 policies and the propagation matrix are deterministic — so a hit
// is bit-identical to recomputation and never perturbs a search
// trajectory.
//
// A cache is not safe for concurrent use; give each goroutine its own
// (the parallel placement search keeps one per walk). It is the only
// prediction cache: nothing is memoized across searches, because every
// Predictor in the tree costs about what a probe of a table too large for
// the processor's caches costs.
type PredictionCache struct {
	pt wordTable // (app index, every unit's co-runner words) -> prediction
	ct wordTable // one unit's co-runner words, two or more -> combined pressure
	// c1 memoizes the combined pressure of one-word unit keys — every
	// unit under the paper's pairwise rule — by the word itself: a direct
	// array load instead of a hashed probe.
	c1                         []float64
	c1ok                       []bool
	ps, co                     []float64 // scratch pressure / co-runner score buffers
	kw                         []uint64  // scratch prediction key words
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
	c.pt.reset()
	c.ct.reset()
	c.c1 = c.c1[:0]
	c.c1ok = c.c1ok[:0]
	c.hits, c.misses = 0, 0
	c.combineHits, c.combineMisses = 0, 0
}

// key writes the prediction-memo key of app id, whose units sit at
// positions seg, into the scratch words and returns it with its hash:
// for each unit, in postings order, one word per other slot of its host,
// in slot order. A 1-slot host gives each unit one empty word; on 2-slot
// hosts a unit's word is the single load of its sibling slot.
func (c *PredictionCache) key(g *Grid, seg []int32, id int32) ([]uint64, uint64) {
	sph := int32(g.SlotsPerHost)
	kw := scratch(&c.kw, len(seg)*int(max(sph-1, 1)))
	h := uint64(id) ^ hashSeed
	cells := g.cells
	switch sph {
	case 1:
		for i := range kw {
			kw[i] = emptyWord
			h = foldWord(h, emptyWord)
		}
	case 2:
		for i, p := range seg {
			w := uint64(cells[p^1] + 2)
			kw[i] = w
			h = foldWord(h, w)
		}
	default:
		k := 0
		for _, p := range seg {
			base := p - p%sph
			for q := base; q < base+sph; q++ {
				if q == p {
					continue
				}
				w := uint64(cells[q] + 2)
				kw[k] = w
				k++
				h = foldWord(h, w)
			}
		}
	}
	return kw, mix64(h)
}

// combined returns the memoized combined pressure on a unit whose other
// slots hold the key words kw: bubble.CombineScores over the occupied
// slots' scores, in slot order, at the package's collision exponent.
// One-word keys live in the c1 array, longer ones in the combine table.
func (c *PredictionCache) combined(ix *AppsIndex, kw []uint64) (float64, error) {
	if len(kw) == 1 {
		w := kw[0]
		if w < uint64(len(c.c1)) && c.c1ok[w] {
			c.combineHits++
			return c.c1[w], nil
		}
		v, err := c.combine(ix, kw)
		if err != nil {
			return 0, err
		}
		for w >= uint64(len(c.c1)) {
			c.c1 = append(c.c1, 0)
			c.c1ok = append(c.c1ok, false)
		}
		c.c1[w], c.c1ok[w] = v, true
		return v, nil
	}
	h := hashWords(0, kw)
	if v, ok := c.ct.get(h, 0, kw); ok {
		c.combineHits++
		return v, nil
	}
	v, err := c.combine(ix, kw)
	if err != nil {
		return 0, err
	}
	c.ct.put(h, 0, kw, v)
	return v, nil
}

// combine computes a combine-memo miss: CombineScores over the scores of
// the apps kw names, skipping empty slots.
func (c *PredictionCache) combine(ix *AppsIndex, kw []uint64) (float64, error) {
	co := c.co[:0]
	for _, w := range kw {
		if w == emptyWord {
			continue
		}
		co = append(co, ix.scores[w-2])
	}
	c.co = co
	v, err := bubble.CombineScores(co, bubble.DefaultCollision)
	if err != nil {
		return 0, err
	}
	c.combineMisses++
	return v, nil
}

// Stats reports prediction-memo hits and misses so far (the combine
// memo is reported separately by CombineStats).
func (c *PredictionCache) Stats() (hits, misses uint64) {
	return c.hits, c.misses
}

// CombineStats reports co-runner combine-memo hits and misses so far.
// Traffic is counted per unit: a unit whose combine is memoized is a hit,
// and a prediction-memo hit counts one combine hit per unit.
func (c *PredictionCache) CombineStats() (hits, misses uint64) {
	return c.combineHits, c.combineMisses
}
