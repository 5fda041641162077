// The fleet-scale hierarchical search behind Config.Cells. A
// thousand-app request over thousands of hosts makes the flat swap loop's
// proposal space enormous, so the hierarchical path shards the hosts into
// contiguous cells (cluster.Partition), spreads the demands across cells
// by free capacity, anneals each cell independently with the same
// restart routine the flat search uses (anneal, on a dense sub-index
// sliced from the request's — no string is looked up), writes each
// cell's best cells straight into one fleet-wide grid, and then runs a
// cross-cell exchange phase over that grid through the same walk
// (exchange.go: deterministic batched annealing, one trajectory at every
// evaluator count). The exchange phase's best state is the search's one
// materialized Result.
//
// Determinism: the demand spread is greedy with lowest-cell-index
// tie-breaks, each cell's seed derives from
// Stream("cells").StreamN("cell", c), cells write disjoint rows of the
// fleet grid and their counters are summed in index order regardless of
// which worker ran them, and the exchange phase draws from its own
// Stream("exchange") / Stream("exchange-accept") pair — the whole search
// is a pure function of (Request, Config).
//
// Exactness: during the cell phase an application split across cells is
// scored cell-locally (each cell only sees the units it holds), but the
// exchange phase re-predicts the fleet grid globally before its first
// proposal, so the returned Objective/Predicted are exact full-cluster
// model evaluations, identical in meaning to the flat search's.
//
// The three phases carry runtime/pprof labels (placement_phase =
// spread / cells / exchange, inherited by the goroutines each phase
// spawns), so a CPU or heap profile of a fleet search attributes cost
// per phase directly — scripts/profile.sh captures one.

package placement

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// cellOutcome is what one cell's search contributes beyond the cells it
// wrote into the fleet grid.
type cellOutcome struct {
	tally
	err error
}

// searchHierarchical runs the cell-sharded search. Search has already
// bound the request, applied config defaults, and checked the
// cell/exchange knobs; cfg.Cells is > 1 here.
func searchHierarchical(b *bound, cfg *Config, sign float64) (Result, error) {
	ctx := context.Background()
	cells := cluster.Partition(b.hosts, cfg.Cells)
	if err := cluster.CheckPartition(b.hosts, cells); err != nil {
		return Result{}, err
	}

	var asg [][]appUnits
	var err error
	pprof.Do(ctx, pprof.Labels("placement_phase", "spread"), func(context.Context) {
		asg, err = assignDemands(b, cells)
	})
	if err != nil {
		return Result{}, err
	}

	// fleet holds the fleet-wide grid the cells fill and the exchange
	// phase then walks.
	fleet := acquireWorkspace()
	defer releaseWorkspace(fleet)
	fleet.e.grid.Reset(b.hosts, b.slots)

	// outs is indexed by cell, so the sums below are independent of which
	// worker ran what and of completion order.
	seeder := sim.NewRNG(cfg.Seed).Stream("cells")
	outs := make([]cellOutcome, len(cells))
	pprof.Do(ctx, pprof.Labels("placement_phase", "cells"), func(context.Context) {
		sim.FanOut(len(cells), runtime.GOMAXPROCS(0), func(c int) {
			if len(asg[c]) > 0 {
				outs[c] = searchCell(b, cfg, sign, cells[c], asg[c], seeder.StreamN("cell", c).Seed(), &fleet.e.grid)
			}
		})
	})
	var sum tally
	for c := range outs {
		if outs[c].err != nil {
			return Result{}, fmt.Errorf("placement: cell %d: %w", c, outs[c].err)
		}
		sum.add(&outs[c].tally)
	}

	var ex exchangeOutcome
	pprof.Do(ctx, pprof.Labels("placement_phase", "exchange"), func(context.Context) {
		ex, err = exchange(fleet, b, cfg, sign, cells)
	})
	if err != nil {
		return Result{}, err
	}
	best, err := b.materialize(&fleet.best)
	if err != nil {
		return Result{}, err
	}
	best.Evaluations = sum.evals + ex.evals
	best.CombineHits = sum.chits + ex.chits
	best.CombineMisses = sum.cmisses + ex.cmisses

	if cfg.Telemetry != nil {
		cfg.Telemetry.Gauge(MetricCells).Set(float64(len(cells)))
		cfg.Telemetry.Counter(MetricExchangeProposals).Add(ex.proposals)
		cfg.Telemetry.Counter(MetricExchangeAccepted).Add(ex.accepted)
		cfg.Telemetry.Counter(MetricExchangeConflicts).Add(ex.conflicts)
		cfg.Telemetry.Gauge(MetricExchangeBatchOccupancy).Set(ex.occupancy)
		// Proposal and cache traffic is the exchange phase's; evaluations
		// count the cells' too.
		ex.evals = best.Evaluations
		recordTally(cfg.Telemetry, &ex.tally, best.Objective)
	}
	return best, nil
}

// assignDemands spreads the request's demands across cells: each demand
// goes to the cell with the most remaining free capacity (ties to the
// lowest cell index), splitting a demand across cells when no single
// cell can hold it — so an app appears at most once per cell. Down hosts
// contribute no capacity. Binding already guarantees total units fit the
// surviving slots, so the spread always succeeds.
func assignDemands(b *bound, cells [][]int) ([][]appUnits, error) {
	free := make([]int, len(cells))
	for c, hs := range cells {
		up := len(hs)
		if b.down != nil {
			for _, h := range hs {
				if b.down[h] {
					up--
				}
			}
		}
		free[c] = up * b.slots
	}
	out := make([][]appUnits, len(cells))
	// One backing array sized for the even-spread common case (one extra
	// slot per cell absorbs a split) — the greedy loop then appends
	// without regrowing.
	per := len(b.demand)/len(cells) + 2
	backing := make([]appUnits, len(cells)*per)
	for c := range out {
		out[c] = backing[c*per : c*per : (c+1)*per]
	}
	for _, d := range b.demand {
		units := d.units
		for units > 0 {
			best := -1
			for c := range free {
				if free[c] > 0 && (best < 0 || free[c] > free[best]) {
					best = c
				}
			}
			if best < 0 {
				return nil, fmt.Errorf("placement: no cell capacity left for %q", b.ix.Apps[d.id])
			}
			take := min(units, free[best])
			out[best] = append(out[best], appUnits{id: d.id, units: take})
			free[best] -= take
			units -= take
		}
	}
	return out, nil
}

// searchCell anneals one cell: local host i is global host hosts[i],
// and local app j is the cell's j-th smallest request index — ascending
// indexes keep the request's sorted-app order, so the cell's objective
// accumulates exactly as a from-scratch binding of its apps would. The
// winning restart's cells are written into the cell's rows of fleet.
func searchCell(b *bound, cfg *Config, sign float64, hosts []int, demand []appUnits, seed int64, fleet *core.Grid) (o cellOutcome) {
	ws := acquireWorkspace()
	defer releaseWorkspace(ws)
	ids := ws.ids[:0]
	for _, d := range demand {
		ids = append(ids, d.id)
	}
	slices.Sort(ids)
	ws.ids = ids
	b.ix.Sub(&ws.sub, ids)
	p := problem{ix: &ws.sub, hosts: len(hosts), slots: b.slots, limit: b.limit}
	ws.demand = ws.demand[:0]
	for _, d := range demand {
		j, _ := slices.BinarySearch(ids, d.id)
		ws.demand = append(ws.demand, appUnits{id: int32(j), units: d.units})
	}
	p.demand = ws.demand
	if b.down != nil {
		ws.down = ws.down[:0]
		for _, h := range hosts {
			ws.down = append(ws.down, b.down[h])
		}
		if slices.Contains(ws.down, true) {
			p.down = ws.down
		}
	}
	// The QoS constraint only applies in the cell actually holding the
	// constrained app's units. Feasibility is re-checked globally by the
	// exchange phase.
	if b.qos != nil {
		if j, ok := slices.BinarySearch(ids, b.qosIdx); ok {
			p.qos, p.qosIdx = b.qos, int32(j)
		}
	}
	outs, win, err := anneal(&p, cfg, sign, seed, false, nil)
	defer releaseOutcomes(outs)
	if err != nil {
		o.err = err
		return o
	}
	for i := range outs {
		o.add(&outs[i].tally)
	}
	best, dst := outs[win].ws.best.cells, fleet.Cells()
	for i, gh := range hosts {
		for s, id := range best[i*b.slots : (i+1)*b.slots] {
			if id >= 0 {
				dst[gh*b.slots+s] = ids[id]
			}
		}
	}
	return o
}
