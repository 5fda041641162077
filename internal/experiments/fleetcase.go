// The fleet-scale scenario family: the paper's placement case studies
// run on an 8-node private cluster, but the consolidation argument is
// about datacenter fleets. This runner generates a heterogeneous
// 200-host fleet from weighted node-class templates (internal/fleet),
// synthesizes a deterministic application mix over it, and compares the
// flat annealing search against the cell-sharded hierarchical search on
// the exact same request — same model, same seed, same demands — showing
// the cell decomposition's objective cost and evaluation profile.

package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/placement"
	"repro/internal/report"
	"repro/internal/sim"
)

// fleetCells is the cell count of the hierarchical arm.
const fleetCells = 8

// fleetSpec is the scenario's 200-host, 3-class fleet.
func fleetSpec() fleet.Spec {
	return fleet.Spec{
		Name:         "exp-fleet",
		TotalHosts:   200,
		SlotsPerHost: 2,
		Templates: []fleet.Template{
			{Name: "core", Weight: 60, Capacity: 1.0},
			{Name: "burst", Weight: 25, DegradeFactor: 1.2, StartupRounds: 4},
			{Name: "legacy", Count: 30, Capacity: 0.8, DegradeFactor: 1.5, StartupRounds: 2},
		},
	}
}

// linearPred is a synthetic interference model for fleet-scale runs:
// normalized time grows linearly with total co-located pressure, the
// same shape the measured models exhibit in their low-pressure regime.
type linearPred struct{ per float64 }

// PredictPressures implements core.Predictor.
func (p linearPred) PredictPressures(ps []float64) (float64, error) {
	var sum float64
	for _, v := range ps {
		sum += v
	}
	return 1 + p.per*sum, nil
}

// fleetRequest synthesizes numApps applications over the fleet with
// seed-derived sensitivities, bubble scores, and unit counts filling
// half the slot capacity — enough load that placement quality matters,
// enough slack that the search has room to move.
func fleetRequest(spec fleet.Spec, seed int64, numApps int) placement.Request {
	r := sim.NewRNG(seed).Stream("fleet-exp-apps")
	budget := spec.TotalHosts * spec.SlotsPerHost / 2
	demands := make([]cluster.Demand, 0, numApps)
	predictors := make(map[string]core.Predictor, numApps)
	scores := make(map[string]float64, numApps)
	total := 0
	for i := 0; i < numApps && total < budget; i++ {
		app := fmt.Sprintf("app%03d", i)
		units := 1 + r.Intn(2*budget/numApps)
		if total+units > budget {
			units = budget - total
		}
		total += units
		demands = append(demands, cluster.Demand{App: app, Units: units})
		predictors[app] = linearPred{per: 0.02 + 0.08*r.Float64()}
		scores[app] = 0.5 + 5.5*r.Float64()
	}
	return placement.Request{
		NumHosts:     spec.TotalHosts,
		SlotsPerHost: spec.SlotsPerHost,
		Demands:      demands,
		Predictors:   predictors,
		Scores:       scores,
	}
}

// fleetArm is one search over the fleet request.
type fleetArm struct {
	name  string
	cells int
	res   placement.Result
}

// cellLoad is one cell of the hierarchical placement.
type cellLoad struct{ hosts, units, apps int }

// fleetResult is the fleet scenario: the generated fleet's composition,
// the flat and hierarchical searches over one synthetic request, and the
// hierarchical placement's per-cell occupancy.
type fleetResult struct {
	spec        fleet.Spec
	seed        int64
	classHosts  []int // hosts generated per template
	digest      string
	demands     []cluster.Demand
	iters, exch int
	arms        [2]fleetArm // flat, hierarchical
	occupancy   []cellLoad
}

// fleet generates the template fleet and runs the flat-vs-hierarchical
// placement comparison.
func (l *Lab) fleet() (*fleetResult, error) {
	return l.fleetWith(fleetSpec())
}

// fleetWith is fleet over an explicit spec; the golden sensitivity test
// uses it to show that a one-template perturbation changes the report.
func (l *Lab) fleetWith(spec fleet.Spec) (*fleetResult, error) {
	f, err := fleet.Generate(spec, l.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	r := &fleetResult{spec: spec, seed: l.Cfg.Seed, classHosts: f.ClassCounts()}
	if r.digest, err = f.Digest(); err != nil {
		return nil, err
	}

	numApps, restarts := 40, 2
	r.iters, r.exch = 1500, 3000
	if l.Cfg.Quick {
		numApps, restarts = 16, 1
		r.iters, r.exch = 200, 400
	}
	req := fleetRequest(spec, l.Cfg.Seed, numApps)
	r.demands = req.Demands
	r.arms = [2]fleetArm{{name: "flat", cells: 1}, {name: "hierarchical", cells: fleetCells}}
	for i := range r.arms {
		cfg := placement.Config{Iterations: r.iters, Seed: l.Cfg.Seed, Restarts: restarts}
		if r.arms[i].cells > 1 {
			cfg.Cells, cfg.ExchangeIters = fleetCells, r.exch
		}
		if r.arms[i].res, err = placement.Search(req, cfg); err != nil {
			return nil, err
		}
	}

	hier := r.arms[1].res.Placement
	for _, hosts := range f.Cells(fleetCells) {
		units, distinct := 0, map[string]bool{}
		for _, h := range hosts {
			for s := 0; s < spec.SlotsPerHost; s++ {
				if a := hier.At(h, s); a != "" {
					units++
					distinct[a] = true
				}
			}
		}
		r.occupancy = append(r.occupancy, cellLoad{len(hosts), units, len(distinct)})
	}
	return r, nil
}

func (r fleetResult) output() Output {
	comp := report.NewTable(
		fmt.Sprintf("Fleet composition: %d hosts from %d weighted templates (seed %d)",
			r.spec.TotalHosts, len(r.spec.Templates), r.seed),
		"template", "weight", "pinned", "hosts", "capacity", "degrade", "startup rounds")
	for i, tpl := range r.spec.Templates {
		comp.MustAddRow(tpl.Name, report.F(tpl.Weight, 0), fmt.Sprint(tpl.Count),
			fmt.Sprint(r.classHosts[i]), report.F(tpl.ResolveCapacity(), 2),
			report.F(tpl.ResolveDegrade(), 2), fmt.Sprint(tpl.StartupRounds))
	}
	cmp := report.NewTable(
		fmt.Sprintf("Flat vs. cell-sharded search over the fleet (%d apps, %d units, %d iterations/cell, %d exchange)",
			len(r.demands), totalUnits(r.demands), r.iters, r.exch),
		"search", "cells", "objective", "evaluations", "norm. obj")
	for _, a := range r.arms {
		cmp.MustAddRow(a.name, fmt.Sprint(a.cells),
			report.F(a.res.Objective, 4), fmt.Sprint(a.res.Evaluations),
			report.Norm(a.res.Objective/r.arms[0].res.Objective))
	}
	occ := report.NewTable(
		fmt.Sprintf("Cell occupancy of the hierarchical placement (%d cells)", fleetCells),
		"cell", "hosts", "units", "distinct apps")
	for c, o := range r.occupancy {
		occ.MustAddRow(fmt.Sprint(c), fmt.Sprint(o.hosts), fmt.Sprint(o.units), fmt.Sprint(o.apps))
	}
	return Output{
		ID:     "Fleet",
		Title:  "Template-driven fleet generation and cell-sharded placement at 200 hosts",
		Tables: []*report.Table{comp, cmp, occ},
		Notes: []string{
			fmt.Sprintf("Fleet digest %s — same spec and seed regenerate this inventory byte-for-byte.", r.digest),
			fmt.Sprintf("Hierarchical objective is %s of flat on the same seed; both placements are full-model evaluations.",
				report.Norm(r.arms[1].res.Objective/r.arms[0].res.Objective)),
		},
	}
}

// totalUnits sums a demand list.
func totalUnits(ds []cluster.Demand) int {
	n := 0
	for _, d := range ds {
		n += d.Units
	}
	return n
}
