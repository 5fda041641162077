// Index form: the placement search fixes its app universe for a whole
// search, so names are bound to dense indexes once — predictors and
// bubble scores become slices, the placement is an int32 grid the swap
// engine works on directly, and the per-proposal hot loop touches no
// strings at all. Predictions over the index form are bit-identical to
// PredictPlacement over the named form: the scan order, the
// CombineScores inputs, and the Predictor calls are the same, only the
// keys changed representation.

package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/cluster"
)

// AppsIndex binds one search's fixed app universe to dense indexes.
// Index order is the caller's app order (the placement search uses its
// sorted app list), and the same index addresses the predictor slice,
// the score slice, Grid cells, and prediction output slices.
type AppsIndex struct {
	Apps  []string // index -> name
	preds []Predictor
	// scores[i] is the bubble score of app i; ok[i] records presence so
	// an app that never appears as a co-runner may legally lack one
	// (exactly the lazy error surface of the map-based path).
	scores []float64
	ok     []bool
	// idx is the name -> index map behind IndexOf, built on first use:
	// a search binds by position and never looks a name up.
	idxOnce sync.Once
	idx     map[string]int32
}

// NewAppsIndex resolves predictors and scores for apps, in order. A
// missing predictor is an immediate error (every indexed app gets
// predicted); a missing score only errors later, if and when the app
// shows up as somebody's co-runner.
func NewAppsIndex(apps []string, predictors map[string]Predictor, scores map[string]float64) (*AppsIndex, error) {
	ix := &AppsIndex{
		Apps:   apps,
		preds:  make([]Predictor, len(apps)),
		scores: make([]float64, len(apps)),
		ok:     make([]bool, len(apps)),
	}
	for i, a := range apps {
		p, ok := predictors[a]
		if !ok {
			return nil, fmt.Errorf("core: no predictor for %q", a)
		}
		ix.preds[i] = p
		if s, ok := scores[a]; ok {
			ix.scores[i], ix.ok[i] = s, true
		}
	}
	return ix, nil
}

// Sub rebinds dst to the sub-universe ids of ix: app i of dst is app
// ids[i] of ix, with its predictor and score carried over by position —
// no name is looked up. Ascending ids keep ix's app order, which is how
// a cell of the hierarchical search gets its own dense index whose
// sorted-app accumulation order matches a from-scratch binding of the
// cell's apps. dst's storage is reused.
func (ix *AppsIndex) Sub(dst *AppsIndex, ids []int32) {
	*dst = AppsIndex{Apps: dst.Apps[:0], preds: dst.preds[:0], scores: dst.scores[:0], ok: dst.ok[:0]}
	for _, id := range ids {
		dst.Apps = append(dst.Apps, ix.Apps[id])
		dst.preds = append(dst.preds, ix.preds[id])
		dst.scores = append(dst.scores, ix.scores[id])
		dst.ok = append(dst.ok, ix.ok[id])
	}
}

// IndexOf returns the dense index of app, if bound.
func (ix *AppsIndex) IndexOf(app string) (int32, bool) {
	ix.idxOnce.Do(func() {
		ix.idx = make(map[string]int32, len(ix.Apps))
		for i, a := range ix.Apps {
			ix.idx[a] = int32(i)
		}
	})
	id, ok := ix.idx[app]
	return id, ok
}

// Grid is a placement in index form over an AppsIndex: cell (h, s)
// holds the dense index of the app occupying that slot, or -1 when the
// slot is empty. It is the placement search's working state; NewGrid
// mirrors an existing string Placement into it.
type Grid struct {
	Hosts, SlotsPerHost int
	cells               []int32
}

// NewGrid mirrors p onto ix's index space.
func NewGrid(p *cluster.Placement, ix *AppsIndex) (*Grid, error) {
	g := &Grid{}
	g.Reset(p.NumHosts, p.HostSlots)
	for h := 0; h < p.NumHosts; h++ {
		for s, a := range p.Slots(h) {
			if a == "" {
				continue
			}
			id, ok := ix.IndexOf(a)
			if !ok {
				return nil, fmt.Errorf("core: app %q not in index", a)
			}
			g.cells[h*p.HostSlots+s] = id
		}
	}
	return g, nil
}

// Reset makes g an empty hosts x slotsPerHost grid (every cell -1),
// reusing capacity.
func (g *Grid) Reset(hosts, slotsPerHost int) {
	g.Hosts, g.SlotsPerHost = hosts, slotsPerHost
	n := hosts * slotsPerHost
	g.cells = slices.Grow(g.cells[:0], n)[:n]
	for i := range g.cells {
		g.cells[i] = -1
	}
}

// Cells returns the flat host-major cell array itself, for bulk fills
// (the random sampler, the cell-to-fleet merge) and snapshots. Writers
// must rebuild any Postings over g afterwards.
func (g *Grid) Cells() []int32 { return g.cells }

// Swap exchanges two cells, mirroring cluster.Placement.Swap.
func (g *Grid) Swap(hostA, slotA, hostB, slotB int) {
	i := hostA*g.SlotsPerHost + slotA
	j := hostB*g.SlotsPerHost + slotB
	g.cells[i], g.cells[j] = g.cells[j], g.cells[i]
}

// Row returns the slot row of one host; callers must not mutate it.
func (g *Grid) Row(h int) []int32 {
	return g.cells[h*g.SlotsPerHost : (h+1)*g.SlotsPerHost]
}

// Cell returns the app index in slot s of host h (-1 when empty).
func (g *Grid) Cell(h, s int) int32 { return g.cells[h*g.SlotsPerHost+s] }

// CopyFrom makes g an independent copy of src, reusing capacity. The
// speculative exchange workers copy the authoritative grid once per
// search with this, then follow it by replaying its swaps.
func (g *Grid) CopyFrom(src *Grid) {
	g.Hosts, g.SlotsPerHost = src.Hosts, src.SlotsPerHost
	g.cells = append(g.cells[:0], src.cells...)
}
