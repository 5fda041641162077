package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// sumPred predicts 1 + w*sum(pressures); deterministic and cheap.
type sumPred struct{ w float64 }

func (s sumPred) PredictPressures(ps []float64) (float64, error) {
	var t float64
	for _, p := range ps {
		t += p
	}
	return 1 + s.w*t, nil
}

// countingPred wraps a Predictor and counts invocations.
type countingPred struct {
	inner Predictor
	calls *int
}

func (c countingPred) PredictPressures(ps []float64) (float64, error) {
	*c.calls++
	return c.inner.PredictPressures(ps)
}

type failPred struct{}

func (failPred) PredictPressures([]float64) (float64, error) {
	return 0, errors.New("boom")
}

func deltaFixture(t *testing.T) (*cluster.Placement, map[string]Predictor, map[string]float64, *int) {
	t.Helper()
	demands := []cluster.Demand{
		{App: "a", Units: 4}, {App: "b", Units: 4},
		{App: "c", Units: 4}, {App: "d", Units: 4},
	}
	p, err := cluster.RandomValid(sim.NewRNG(5), 8, 2, demands, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls := new(int)
	preds := map[string]Predictor{
		"a": countingPred{sumPred{0.3}, calls},
		"b": countingPred{sumPred{0.01}, calls},
		"c": countingPred{sumPred{0.02}, calls},
		"d": countingPred{sumPred{0.05}, calls},
	}
	scores := map[string]float64{"a": 0.5, "b": 0.5, "c": 6, "d": 3}
	return p, preds, scores, calls
}

// TestPredictionCacheHitsAndPurity: revisiting an identical placement
// must hit the cache without calling the predictor again, and hits must
// return the exact value of the original computation.
func TestPredictionCacheHitsAndPurity(t *testing.T) {
	p, preds, scores, calls := deltaFixture(t)
	e := newPosEngine(t, p, preds, scores, NewPredictionCache())
	callsAfterFirst := *calls
	if callsAfterFirst == 0 {
		t.Fatal("no predictor calls on cold cache")
	}
	second := make([]float64, len(e.inc))
	if err := DeltaPredictPos(e.g, e.pst, e.all, e.ix, e.cache, second); err != nil {
		t.Fatal(err)
	}
	if *calls != callsAfterFirst {
		t.Errorf("warm re-prediction called the predictor %d more times, want 0", *calls-callsAfterFirst)
	}
	for i, v := range e.inc {
		if second[i] != v {
			t.Errorf("cache hit for %s returned %v, want %v", e.ix.Apps[i], second[i], v)
		}
	}
	if hits, misses := e.cache.Stats(); hits == 0 || misses == 0 {
		t.Errorf("stats hits=%d misses=%d, want both positive", hits, misses)
	}
	e.cache.Reset()
	if hits, misses := e.cache.Stats(); hits != 0 || misses != 0 {
		t.Errorf("stats after Reset hits=%d misses=%d, want 0/0", hits, misses)
	}
	if err := DeltaPredictPos(e.g, e.pst, e.all, e.ix, e.cache, second); err != nil {
		t.Fatal(err)
	}
	if *calls == callsAfterFirst {
		t.Error("Reset kept memo contents: no predictor call on the next pass")
	}

	var nilCache *PredictionCache
	nilCache.Reset()
	if h, m := nilCache.Stats(); h != 0 || m != 0 {
		t.Error("nil cache should report zero stats")
	}
}

// TestCombineStatsVisible: the co-runner combine memo's traffic is
// observable — both sides of the pair, on the pairwise direct memos and
// the hashed multi-co-runner memo.
func TestCombineStatsVisible(t *testing.T) {
	for _, sph := range []int{2, 3} {
		p, err := cluster.RandomValidLimit(sim.NewRNG(5), 8, sph, sph,
			[]cluster.Demand{{App: "a", Units: 5}, {App: "b", Units: 5}, {App: "c", Units: 5}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		e := newPosEngine(t, p, map[string]Predictor{"a": sumPred{0.3}, "b": sumPred{0.01}, "c": sumPred{0.02}},
			map[string]float64{"a": 0.5, "b": 2, "c": 6}, NewPredictionCache())
		if _, misses := e.cache.CombineStats(); misses == 0 {
			t.Errorf("sph=%d cold pass: combine misses = 0, want > 0", sph)
		}
		if err := DeltaPredictPos(e.g, e.pst, e.all, e.ix, e.cache, e.inc); err != nil {
			t.Fatal(err)
		}
		if hits, _ := e.cache.CombineStats(); hits == 0 {
			t.Errorf("sph=%d warm pass: combine hits = 0, want > 0", sph)
		}
	}
	var nilCache *PredictionCache
	if h, m := nilCache.CombineStats(); h != 0 || m != 0 {
		t.Error("nil cache must report zero combine stats")
	}
}

// TestDeltaPredictErrors covers the predictor's failure paths.
func TestDeltaPredictErrors(t *testing.T) {
	p, preds, scores, _ := deltaFixture(t)
	e := newPosEngine(t, p, preds, scores, nil)
	if err := DeltaPredictPos(nil, e.pst, e.all, e.ix, nil, e.inc); err == nil {
		t.Error("nil grid should fail")
	}
	if err := DeltaPredictPos(e.g, nil, e.all, e.ix, nil, e.inc); err == nil {
		t.Error("nil postings should fail")
	}
	if err := DeltaPredictPos(e.g, e.pst, e.all, e.ix, nil, nil); err == nil {
		t.Error("nil out slice should fail")
	}

	// An indexed app with no unit in the grid has no pressure vector.
	preds["ghost"] = sumPred{1}
	scores["ghost"] = 1
	ghostIx, err := NewAppsIndex(append(p.Apps(), "ghost"), preds, scores)
	if err != nil {
		t.Fatal(err)
	}
	ghost := int32(len(ghostIx.Apps) - 1)
	for _, cache := range []*PredictionCache{nil, NewPredictionCache()} {
		pst := NewPostings(e.g, len(ghostIx.Apps))
		if err := DeltaPredictPos(e.g, pst, []int32{ghost}, ghostIx, cache, make([]float64, len(ghostIx.Apps))); err == nil {
			t.Errorf("cache=%v: app missing from placement should fail", cache != nil)
		}
	}

	// A missing co-runner score surfaces lazily, on both layouts' paths;
	// so does a predictor error.
	a, _ := e.ix.IndexOf("a")
	badIx, err := NewAppsIndex(p.Apps(), preds, map[string]float64{"a": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	failing := map[string]Predictor{"a": failPred{}, "b": sumPred{0}, "c": sumPred{0}, "d": sumPred{0}}
	failIx, err := NewAppsIndex(p.Apps(), failing, scores)
	if err != nil {
		t.Fatal(err)
	}
	for _, cache := range []*PredictionCache{nil, NewPredictionCache()} {
		if err := DeltaPredictPos(e.g, e.pst, []int32{a}, badIx, cache, e.inc); err == nil {
			t.Errorf("cache=%v: missing co-runner score should fail", cache != nil)
		}
		if err := DeltaPredictPos(e.g, e.pst, []int32{a}, failIx, cache, e.inc); err == nil {
			t.Errorf("cache=%v: predictor error should propagate", cache != nil)
		}
	}
}

// TestCacheSignedZeroHits: +0 and -0 compare equal and every predictor
// is a pure function of the float values, so a -0 entry must hit the +0
// entry's memo instead of recomputing under a distinct key.
func TestCacheSignedZeroHits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cache := NewPredictionCache()
	calls := 0
	pred := countingPred{sumPred{0.4}, &calls}

	v1, err := cache.predict(0, pred, []float64{0, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("cold predict made %d calls, want 1", calls)
	}
	v2, err := cache.predict(0, pred, []float64{negZero, 1.5})
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
