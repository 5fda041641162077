package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestSharedCachePurityAndReuse: wrapped predictions are bit-identical to
// direct ones, and a repeat of the same (app, pressures) point never
// reaches the underlying predictor again.
func TestSharedCachePurityAndReuse(t *testing.T) {
	calls := 0
	inner := countingPred{sumPred{0.3}, &calls}
	sc := NewSharedPredictionCache()
	wrapped := sc.Wrap("a", inner)

	ps := []float64{0.5, 1.25, 2}
	want, err := inner.PredictPressures(ps)
	if err != nil {
		t.Fatal(err)
	}
	calls = 0
	for i := 0; i < 5; i++ {
		got, err := wrapped.PredictPressures(ps)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("wrapped prediction %v != direct %v", got, want)
		}
	}
	if calls != 1 {
		t.Errorf("underlying predictor called %d times, want 1", calls)
	}
	if hits, misses := sc.Stats(); hits != 4 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 4/1", hits, misses)
	}
	if sc.Len() != 1 {
		t.Errorf("Len = %d, want 1", sc.Len())
	}

	// A different app with the same pressures is a distinct key.
	if _, err := sc.Wrap("b", inner).PredictPressures(ps); err != nil {
		t.Fatal(err)
	}
	if sc.Len() != 2 {
		t.Errorf("Len after second app = %d, want 2", sc.Len())
	}
}

// TestSharedCacheConcurrent hammers one shared cache from many goroutines
// mixing repeat and distinct keys — the -race coverage for the serving
// plane's cross-request sharing.
func TestSharedCacheConcurrent(t *testing.T) {
	pure := sumPred{0.1}
	inner := Predictor(pure) // cache-side calls are serialized by the lock
	sc := NewSharedPredictionCache()
	apps := []string{"a", "b", "c"}

	const workers = 8
	const rounds = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				app := apps[i%len(apps)]
				ps := []float64{float64(i % 7), 0.5}
				got, err := sc.Wrap(app, inner).PredictPressures(ps)
				if err != nil {
					errs <- err
					return
				}
				want, _ := pure.PredictPressures(ps)
				if got != want {
					t.Errorf("worker %d: got %v, want %v", w, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// 3 apps x 7 pressure values = 21 distinct keys; everything else hit.
	if sc.Len() != 21 {
		t.Errorf("Len = %d, want 21", sc.Len())
	}
	hits, misses := sc.Stats()
	if misses != 21 {
		t.Errorf("misses = %d, want 21", misses)
	}
	if want := uint64(workers*rounds) - 21; hits != want {
		t.Errorf("hits = %d, want %d", hits, want)
	}
}

// TestSharedCacheNilSafe: a nil shared cache degrades to plain prediction.
func TestSharedCacheNilSafe(t *testing.T) {
	var sc *SharedPredictionCache
	calls := 0
	inner := countingPred{sumPred{0.2}, &calls}
	if got := sc.Wrap("a", inner); got != Predictor(inner) {
		t.Error("nil cache Wrap did not return the predictor unchanged")
	}
	if _, err := sc.Predict("a", inner, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("underlying calls = %d, want 1", calls)
	}
	if h, m := sc.Stats(); h != 0 || m != 0 {
		t.Error("nil cache reported stats")
	}
	if sc.Len() != 0 {
		t.Error("nil cache reported entries")
	}
	preds := map[string]Predictor{"a": inner}
	if got := sc.WrapAll(preds); len(got) != 1 || got["a"] != Predictor(inner) {
		t.Error("nil cache WrapAll did not pass the map through")
	}
}

// TestSharedCacheUnderDelta: DeltaPredictPos through wrapped predictors
// (the serving-plane configuration: per-search cache over the shared
// tier) matches an uncached full prediction exactly.
func TestSharedCacheUnderDelta(t *testing.T) {
	p, preds, scores, _ := deltaFixture(t)
	sc := NewSharedPredictionCache()
	wrapped := sc.WrapAll(preds)
	for round := 0; round < 3; round++ {
		// A fresh per-search cache each round: only the shared tier carries
		// over, and the reference path goes through it too.
		newPosEngine(t, p, wrapped, scores, NewPredictionCache()).check(t, fmt.Sprintf("round %d", round))
	}
	hits, misses := sc.Stats()
	if misses == 0 || hits == 0 {
		t.Errorf("shared tier traffic hits=%d misses=%d, want both positive", hits, misses)
	}
	want, err := PredictPlacement(p, preds, scores)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PredictPlacement(p, wrapped, scores)
	if err != nil {
		t.Fatal(err)
	}
	for app, v := range want {
		if got[app] != v {
			t.Errorf("%s = %v through the shared tier, want %v", app, got[app], v)
		}
	}
}

// --- regressions of the name-keyed tier's key scheme -------------------

// TestCacheNULNameNoCollision: under a byte-key scheme
// (app + "\x00" + float bits) the two (app, pressures) pairs below
// produce the same cache key, so whichever is predicted second silently
// returns the first's value. The interned-ID scheme keys the name
// structurally and must keep them distinct.
func TestCacheNULNameNoCollision(t *testing.T) {
	p1 := 3.5
	p2 := 1.25
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], math.Float64bits(p1))

	appA := "x"
	psA := []float64{p1, p2}
	appB := "x\x00" + string(tail[:]) // byte key: identical to (appA, psA)
	psB := []float64{p2}

	predA := sumPred{0.3}
	predB := sumPred{0.7}
	wantA, _ := predA.PredictPressures(psA)
	wantB, _ := predB.PredictPressures(psB)
	if wantA == wantB {
		t.Fatal("fixture error: the two predictions must differ for the test to detect a collision")
	}

	cache := NewSharedPredictionCache()
	for _, c := range []struct {
		app  string
		pred Predictor
		ps   []float64
		want float64
	}{{appA, predA, psA, wantA}, {appB, predB, psB, wantB}, {appA, predA, psA, wantA}} {
		got, err := cache.Predict(c.app, c.pred, c.ps)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Predict(%q) = %v, want %v (collided across the name/vector boundary)", c.app, got, c.want)
		}
	}
}

// TestCacheSignedZeroHits: +0 and -0 compare equal and every predictor
// is a pure function of the float values, so a -0 entry must hit the +0
// entry's memo instead of recomputing under a distinct key.
func TestCacheSignedZeroHits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cache := NewSharedPredictionCache()
	calls := 0
	pred := countingPred{sumPred{0.4}, &calls}

	v1, err := cache.Predict("a", pred, []float64{0, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("cold predict made %d calls, want 1", calls)
	}
	v2, err := cache.Predict("a", pred, []float64{negZero, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("-0 vector recomputed (calls=%d): signed zero missed the cache", calls)
	}
	if v1 != v2 {
		t.Errorf("predictions differ across zero signs: %v vs %v", v1, v2)
	}
	if hits, _ := cache.Stats(); hits != 1 {
		t.Errorf("hits = %d, want 1 (the -0 lookup)", hits)
	}
	if keyBits(negZero) != 0 || keyBits(0.0) != 0 {
		t.Error("keyBits(±0) must be 0")
	}
}
