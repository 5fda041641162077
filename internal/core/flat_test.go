package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestPredictHotPathZeroAllocs pins the steady-state memo probe at zero
// allocations: a warm index-keyed predict must not touch the heap
// (TestDeltaPredictPosEquivalence pins the whole warm delta prediction).
func TestPredictHotPathZeroAllocs(t *testing.T) {
	var pred Predictor = sumPred{0.3} // boxed once, not per call
	ps := []float64{6, 0.5, 0.5}

	cache := NewPredictionCache()
	if _, err := cache.predict(0, pred, ps); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := cache.predict(0, pred, ps); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm predict allocates %v/run, want 0", allocs)
	}
}

// TestIndexedErrors covers the index-form construction error surfaces.
func TestIndexedErrors(t *testing.T) {
	p, preds, scores, _ := deltaFixture(t)
	if _, err := NewAppsIndex([]string{"ghost"}, preds, scores); err == nil {
		t.Error("unknown app must fail index construction")
	}
	ix, err := NewAppsIndex(p.Apps(), preds, scores)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.IndexOf("ghost"); ok {
		t.Error("IndexOf(ghost) must report absence")
	}
	// A placement holding an app outside the index must fail mirroring.
	other, err := cluster.RandomValid(sim.NewRNG(1), 4, 2,
		[]cluster.Demand{{App: "zz", Units: 2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGrid(other, ix); err == nil {
		t.Error("grid over unindexed app must fail")
	}
}
