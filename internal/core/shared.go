// Cross-request prediction sharing: the serving plane answers many
// placement requests over the same workload mix, and distinct searches
// revisit the same (app, pressure vector) points — so a cache scoped to
// one search leaves repeat work on the table. SharedPredictionCache is
// the name-keyed, concurrency-safe tier under the per-search caches,
// exposed as a Predictor wrapper: a search's own PredictionCache keeps
// absorbing the hot inner loop lock-free, and only its misses fall
// through to the shared tier.

package core

import "sync"

// SharedPredictionCache is a concurrency-safe prediction memo shared
// across searches, keyed by application name and exact pressure vector.
// Because every Predictor in this package is a pure function of its
// pressure vector, a hit is bit-identical to recomputation: threading a
// shared cache under a search never perturbs its trajectory, it only
// skips the policy conversion and matrix lookup.
//
// App names are interned to dense IDs on first sight, so the name/vector
// boundary is structural (no byte-key ambiguity for names containing
// NUL) and a lookup hashes no string beyond the intern map probe.
//
// The zero value is not usable; construct with NewSharedPredictionCache.
// A nil *SharedPredictionCache degrades to plain prediction everywhere.
type SharedPredictionCache struct {
	mu           sync.Mutex
	ids          map[string]int32 // app name -> interned ID
	t            floatKeyTable    // (app ID, pressure vector) -> prediction
	hits, misses uint64
}

// NewSharedPredictionCache returns an empty shared cache.
func NewSharedPredictionCache() *SharedPredictionCache {
	return &SharedPredictionCache{ids: map[string]int32{}}
}

// Predict returns the memoized prediction for (app, pressures), computing
// and storing it on a miss. Safe for concurrent callers; a nil receiver
// degrades to a plain prediction.
func (s *SharedPredictionCache) Predict(app string, pred Predictor, pressures []float64) (float64, error) {
	if s == nil {
		return pred.PredictPressures(pressures)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.ids[app]
	if !ok {
		id = int32(len(s.ids))
		s.ids[app] = id
	}
	v, hit, err := s.t.memo(id, pred, pressures)
	if err != nil {
		return 0, err
	}
	if hit {
		s.hits++
	} else {
		s.misses++
	}
	return v, nil
}

// Stats reports cache hits and misses so far.
func (s *SharedPredictionCache) Stats() (hits, misses uint64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// Len reports the number of memoized entries.
func (s *SharedPredictionCache) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.n
}

// Wrap returns a Predictor for app that consults the shared cache before
// falling through to pred. Wrapped predictors slot directly into a
// placement Request: the search's own per-restart cache still absorbs
// within-trajectory repeats without locking, and only its misses reach
// the shared tier. A nil receiver returns pred unchanged.
func (s *SharedPredictionCache) Wrap(app string, pred Predictor) Predictor {
	if s == nil {
		return pred
	}
	return sharedPredictor{cache: s, app: app, pred: pred}
}

// WrapAll returns a copy of predictors with every entry wrapped by the
// shared cache (nil receiver: the map itself, unwrapped).
func (s *SharedPredictionCache) WrapAll(predictors map[string]Predictor) map[string]Predictor {
	if s == nil {
		return predictors
	}
	out := make(map[string]Predictor, len(predictors))
	for app, p := range predictors {
		out[app] = s.Wrap(app, p)
	}
	return out
}

type sharedPredictor struct {
	cache *SharedPredictionCache
	app   string
	pred  Predictor
}

func (p sharedPredictor) PredictPressures(pressures []float64) (float64, error) {
	return p.cache.Predict(p.app, p.pred, pressures)
}
