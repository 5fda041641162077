package core

import (
	"errors"
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
	p := randomValid(t, sim.NewRNG(5), 8, 2, 0, demands)
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
	e := newPosEngine(t, p, preds, scores)
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
}

// TestCombineStatsVisible: the co-runner combine memo's traffic is
// observable — both sides of the pair, on the pairwise direct memos and
// the hashed multi-co-runner memo.
func TestCombineStatsVisible(t *testing.T) {
	for _, sph := range []int{2, 3} {
		p := randomValid(t, sim.NewRNG(5), 8, sph, sph,
			[]cluster.Demand{{App: "a", Units: 5}, {App: "b", Units: 5}, {App: "c", Units: 5}})
		e := newPosEngine(t, p, map[string]Predictor{"a": sumPred{0.3}, "b": sumPred{0.01}, "c": sumPred{0.02}},
			map[string]float64{"a": 0.5, "b": 2, "c": 6})
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
}

// TestDeltaPredictErrors covers the predictor's failure paths.
func TestDeltaPredictErrors(t *testing.T) {
	p, preds, scores, _ := deltaFixture(t)
	e := newPosEngine(t, p, preds, scores)
	if err := DeltaPredictPos(nil, e.pst, e.all, e.ix, e.cache, e.inc); err == nil {
		t.Error("nil grid should fail")
	}
	if err := DeltaPredictPos(e.g, nil, e.all, e.ix, e.cache, e.inc); err == nil {
		t.Error("nil postings should fail")
	}
	if err := DeltaPredictPos(e.g, e.pst, e.all, e.ix, nil, e.inc); err == nil {
		t.Error("nil cache should fail")
	}
	if err := DeltaPredictPos(e.g, e.pst, e.all, e.ix, e.cache, nil); err == nil {
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
	pst := NewPostings(e.g, len(ghostIx.Apps))
	if err := DeltaPredictPos(e.g, pst, []int32{ghost}, ghostIx, NewPredictionCache(), make([]float64, len(ghostIx.Apps))); err == nil {
		t.Error("app missing from placement should fail")
	}

	// Every indexed app needs a bubble score up front; a predictor
	// error surfaces when a prediction is computed.
	if _, err := NewAppsIndex(p.Apps(), preds, map[string]float64{"a": 0.5}); err == nil {
		t.Error("missing bubble score should fail index construction")
	}
	a, _ := e.ix.IndexOf("a")
	failing := map[string]Predictor{"a": failPred{}, "b": sumPred{0}, "c": sumPred{0}, "d": sumPred{0}}
	failIx, err := NewAppsIndex(p.Apps(), failing, scores)
	if err != nil {
		t.Fatal(err)
	}
	if err := DeltaPredictPos(e.g, e.pst, []int32{a}, failIx, NewPredictionCache(), e.inc); err == nil {
		t.Error("predictor error should propagate")
	}
}
