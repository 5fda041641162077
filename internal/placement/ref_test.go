package placement

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// refEvaluate is the name-keyed reference scorer the engine is pinned
// against: every app of p predicted from its core.PressuresFor vector,
// by name, the unit-weighted mean of the predictions over the sorted
// apps, and the QoS penalty on top.
func refEvaluate(p *cluster.Placement, req Request, qos *QoS) (obj, energy float64, pred map[string]float64, err error) {
	apps := p.Apps()
	if len(apps) == 0 {
		return 0, 0, nil, errors.New("empty placement")
	}
	pred = make(map[string]float64, len(apps))
	var total, weight float64
	for _, a := range apps {
		m, ok := req.Predictors[a]
		if !ok {
			return 0, 0, nil, fmt.Errorf("no predictor for %q", a)
		}
		ps, err := core.PressuresFor(p, a, req.Scores)
		if err != nil {
			return 0, 0, nil, err
		}
		v, err := m.PredictPressures(ps)
		if err != nil {
			return 0, 0, nil, err
		}
		pred[a] = v
		w := float64(p.UnitsOf(a))
		total += v * w
		weight += w
	}
	obj = total / weight
	energy = obj
	if qos != nil {
		if excess := pred[qos.App] - qos.MaxNormalized; excess > 0 {
			energy += qosPenaltyWeight * excess
		}
	}
	return obj, energy, pred, nil
}

// randomValid draws a random valid placement of req's demands on req's
// cluster with cluster.SampleCells — apps numbered by first appearance,
// one id per unit in demand order, the down hosts' slots left empty —
// and names it back with cluster.PlacementFromCells.
func randomValid(tb testing.TB, rng *sim.RNG, req Request) *cluster.Placement {
	tb.Helper()
	var names []string
	var units []int32
	for _, d := range req.Demands {
		id := slices.Index(names, d.App)
		if id < 0 {
			id = len(names)
			names = append(names, d.App)
		}
		for range d.Units {
			units = append(units, int32(id))
		}
	}
	var down []bool
	if len(req.DownHosts) > 0 {
		down = make([]bool, req.NumHosts)
		for _, h := range req.DownHosts {
			down[h] = true
		}
	}
	limit := req.AppsPerHostLimit
	if limit == 0 {
		limit = cluster.MaxAppsPerHost
	}
	n := req.NumHosts * req.SlotsPerHost
	cells, perm := make([]int32, n), make([]int32, n)
	if err := cluster.SampleCells(rng, cells, perm, req.SlotsPerHost, limit, units, down, 0); err != nil {
		tb.Fatal(err)
	}
	p, err := cluster.PlacementFromCells(req.NumHosts, req.SlotsPerHost, req.AppsPerHostLimit, cells, names)
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
