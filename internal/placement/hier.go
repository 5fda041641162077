// The fleet-scale hierarchical search behind Config.Cells. A
// thousand-app request over thousands of hosts makes the flat swap loop's
// proposal space enormous, so the hierarchical path shards the hosts into
// contiguous cells (cluster.Partition), spreads the demands across cells
// by free capacity, anneals each cell independently with the same
// restart routine the flat search uses (anneal, on a dense sub-index
// sliced from the request's — no string is looked up), writes each
// cell's best cells straight into one fleet-wide grid (and its
// predictions into the fleet's prediction slice), and then runs a
// cross-cell exchange phase over that grid through the same walk
// (exchange.go: deterministic batched annealing, one trajectory at every
// evaluator count). The exchange phase's best state is the search's one
// materialized Result.
//
// Determinism: the demand spread is greedy with lowest-cell-index
// tie-breaks, each cell's seed derives from
// Stream("cells").StreamN("cell", c), cells write disjoint rows of the
// fleet grid and the predictions of disjoint apps, and their counters
// are summed in index order regardless of
// which worker ran them, and the exchange phase draws from its own
// Stream("exchange") / Stream("exchange-accept") pair — the whole search
// is a pure function of (Request, Config).
//
// Exactness: during the cell phase an application split across cells is
// scored cell-locally (each cell only sees the units it holds), so the
// exchange phase re-predicts the split applications on the fleet grid
// before its first proposal. Every other application inherits its cell's
// prediction: all its units, and every co-runner of them, sit in rows its
// cell wrote, a cell's hosts are a contiguous range (local order is
// global order), and its sub-index carries the request's own scores and
// predictors — so its cell-local prediction at the cell's best state is
// its fleet-wide one, bit for bit. The returned Objective/Predicted are
// therefore exact full-cluster model evaluations, identical in meaning
// to the flat search's.
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
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// cellOutcome is what one cell's search contributes beyond the cells it
// wrote into the fleet grid.
type cellOutcome struct {
	tally
	err error
}

// hierStats is what a hierarchical search leaves for its telemetry: its
// exchange phase and its cell count.
type hierStats struct {
	ex    exchangeOutcome
	cells int
}

// searchHierarchical runs the cell-sharded search, leaving in r.hier what
// recordHierarchical publishes. The caller has prepared the request, and
// r.cfg.Cells is > 1.
func (r *prepared) searchHierarchical() (Result, error) {
	b, cfg := r.b, &r.cfg
	// fleet holds the fleet-wide grid and predictions the cells fill and
	// the exchange phase then walks.
	fleet := acquireWorkspace()
	defer releaseWorkspace(fleet)
	cells, sum, err := searchCells(fleet, b, cfg, r.sign)
	if err != nil {
		return Result{}, err
	}

	ctx := context.Background()
	var ex exchangeOutcome
	pprof.Do(ctx, pprof.Labels("placement_phase", "exchange"), func(context.Context) {
		ex, err = exchange(fleet, b, cfg, r.sign, cells, nil)
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
	r.hier = &hierStats{ex: ex, cells: len(cells)}
	return best, nil
}

// recordHierarchical publishes a hierarchical search's telemetry.
func (r *prepared) recordHierarchical(reg *telemetry.Registry, best *Result) {
	h := r.hier
	reg.Gauge(MetricCells).Set(float64(h.cells))
	reg.Counter(MetricExchangeProposals).Add(h.ex.proposals)
	reg.Counter(MetricExchangeAccepted).Add(h.ex.accepted)
	reg.Counter(MetricExchangeConflicts).Add(h.ex.conflicts)
	reg.Gauge(MetricExchangeBatchOccupancy).Set(h.ex.occupancy)
	// Proposal and cache traffic is the exchange phase's; evaluations
	// count the cells' too.
	t := h.ex.tally
	t.evals = best.Evaluations
	recordTally(reg, &t, best.Objective)
}

// searchCells runs the spread and cell phases into fleet: the cells'
// best states fill fleet.e.grid, the predictions of every app one cell
// holds whole fill fleet.e.pred, and fleet.stale lists the apps split
// across cells, whose predictions the exchange's start recomputes. It
// returns the partition and the cells' summed counters.
func searchCells(fleet *workspace, b *bound, cfg *Config, sign float64) ([][]int, tally, error) {
	ctx := context.Background()
	cells := cluster.Partition(b.hosts, cfg.Cells)
	if err := cluster.CheckPartition(b.hosts, cells); err != nil {
		return nil, tally{}, err
	}

	var asg [][]appUnits
	var err error
	pprof.Do(ctx, pprof.Labels("placement_phase", "spread"), func(context.Context) {
		asg, fleet.stale, err = assignDemands(b, cells, fleet.stale[:0])
	})
	if err != nil {
		return nil, tally{}, err
	}
	slices.Sort(fleet.stale)
	fleet.e.grid.Reset(b.hosts, b.slots)
	fleet.e.pred = slices.Grow(fleet.e.pred[:0], len(b.ix.Apps))[:len(b.ix.Apps)]

	// outs is indexed by cell, so the sums below are independent of which
	// worker ran what and of completion order.
	seeder := sim.NewRNG(cfg.Seed).Stream("cells")
	outs := make([]cellOutcome, len(cells))
	pprof.Do(ctx, pprof.Labels("placement_phase", "cells"), func(context.Context) {
		sim.FanOut(len(cells), runtime.GOMAXPROCS(0), func(c int) {
			if len(asg[c]) > 0 {
				outs[c] = searchCell(b, cfg, sign, cells[c], asg[c], seeder.StreamN("cell", c).Seed(), fleet)
			}
		})
	})
	var sum tally
	for c := range outs {
		if outs[c].err != nil {
			return nil, tally{}, fmt.Errorf("placement: cell %d: %w", c, outs[c].err)
		}
		sum.add(&outs[c].tally)
	}
	return cells, sum, nil
}

// assignDemands spreads the request's demands across cells: each demand
// goes to the cell with the most remaining free capacity (ties to the
// lowest cell index), splitting a demand across cells when no single
// cell can hold it — so an app appears at most once per cell. Down hosts
// contribute no capacity. Binding already guarantees total units fit the
// surviving slots, so the spread always succeeds. The apps it splits are
// appended to split, in request order.
//
// The pick is a max-heap of the cells with free capacity, ordered by
// free slots then lowest index, so a demand costs O(log cells) instead
// of a scan of every cell; capacity only ever shrinks, so the picked
// cell only sifts down (or leaves the heap at zero).
func assignDemands(b *bound, cells [][]int, split []int32) ([][]appUnits, []int32, error) {
	// One allocation holds the free counts and the heap of cell indexes.
	free := make([]int, 2*len(cells))
	heap := free[len(cells):len(cells)]
	free = free[:len(cells)]
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
		if free[c] > 0 {
			heap = append(heap, c)
		}
	}
	// before reports whether cell x is picked ahead of cell y.
	before := func(x, y int) bool { return free[x] > free[y] || free[x] == free[y] && x < y }
	down := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(heap) {
				return
			}
			if r := l + 1; r < len(heap) && before(heap[r], heap[l]) {
				l = r
			}
			if !before(heap[l], heap[i]) {
				return
			}
			heap[i], heap[l] = heap[l], heap[i]
			i = l
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
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
			if len(heap) == 0 {
				return nil, split, fmt.Errorf("placement: no cell capacity left for %q", b.ix.Apps[d.id])
			}
			best := heap[0]
			take := min(units, free[best])
			if take < d.units && units == d.units {
				split = append(split, d.id)
			}
			out[best] = append(out[best], appUnits{id: d.id, units: take})
			free[best] -= take
			units -= take
			if free[best] == 0 {
				heap[0] = heap[len(heap)-1]
				heap = heap[:len(heap)-1]
			}
			down(0)
		}
	}
	return out, split, nil
}

// searchCell anneals one cell: local host i is global host hosts[i],
// and local app j is the cell's j-th smallest request index — ascending
// indexes keep the request's sorted-app order, so the cell's objective
// accumulates exactly as a from-scratch binding of its apps would. The
// winning restart's cells are written into the cell's rows of fleet's
// grid, and its predictions of the apps no other cell holds (those not
// in the sorted fleet.stale) into fleet's predictions.
func searchCell(b *bound, cfg *Config, sign float64, hosts []int, demand []appUnits, seed int64, fleet *workspace) (o cellOutcome) {
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
	outs, win, err := anneal(&p, cfg, sign, seed)
	defer releaseOutcomes(outs)
	if err != nil {
		o.err = err
		return o
	}
	for i := range outs.s {
		o.add(&outs.s[i].tally)
	}
	best, dst := &outs.s[win].best, fleet.e.grid.Cells()
	for i, gh := range hosts {
		for s, id := range best.cells[i*b.slots : (i+1)*b.slots] {
			if id >= 0 {
				dst[gh*b.slots+s] = ids[id]
			}
		}
	}
	for j, id := range ids {
		if _, split := slices.BinarySearch(fleet.stale, id); !split {
			fleet.e.pred[id] = best.pred[j]
		}
	}
	return o
}
