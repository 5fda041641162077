package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

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
	other := randomValid(t, sim.NewRNG(1), 4, 2, 0, []cluster.Demand{{App: "zz", Units: 2}})
	if _, err := NewGrid(other, ix); err == nil {
		t.Error("grid over unindexed app must fail")
	}
}
