package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// refPredictPlacement is the name-keyed reference predictor the index
// engine is pinned against: every app of p predicted from its
// PressuresFor vector, by name, over maps.
func refPredictPlacement(p *cluster.Placement, predictors map[string]Predictor, scores map[string]float64) (map[string]float64, error) {
	out := map[string]float64{}
	for _, a := range p.Apps() {
		pred, ok := predictors[a]
		if !ok {
			return nil, fmt.Errorf("core: no predictor for %q", a)
		}
		ps, err := PressuresFor(p, a, scores)
		if err != nil {
			return nil, err
		}
		if out[a], err = pred.PredictPressures(ps); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// randomValid draws a random valid placement of demands with
// cluster.SampleCells — apps numbered by first appearance, one id per
// unit in demand order — and names it back with
// cluster.PlacementFromCells. limit 0 is the pairwise rule.
func randomValid(tb testing.TB, rng *sim.RNG, hosts, slots, limit int, demands []cluster.Demand) *cluster.Placement {
	tb.Helper()
	var names []string
	var units []int32
	for _, d := range demands {
		id := slices.Index(names, d.App)
		if id < 0 {
			id = len(names)
			names = append(names, d.App)
		}
		for range d.Units {
			units = append(units, int32(id))
		}
	}
	eff := limit
	if eff == 0 {
		eff = cluster.MaxAppsPerHost
	}
	cells, perm := make([]int32, hosts*slots), make([]int32, hosts*slots)
	if err := cluster.SampleCells(rng, cells, perm, slots, eff, units, nil, 0); err != nil {
		tb.Fatal(err)
	}
	p, err := cluster.PlacementFromCells(hosts, slots, limit, cells, names)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// swapSlots exchanges the contents of two slots of p.
func swapSlots(p *cluster.Placement, ha, sa, hb, sb int) {
	a, b := p.At(ha, sa), p.At(hb, sb)
	_ = p.Set(ha, sa, b)
	_ = p.Set(hb, sb, a)
}
