// Indexed prediction: the string-keyed DeltaPredict still spends most
// of its time hashing app names (scores/predictors map lookups, result
// map writes) even with the open-addressed memo tables underneath. The
// placement search fixes its app universe for a whole search, so the
// names are bound to dense indexes once — predictors and bubble scores
// become slices, the placement is an int32 grid the swap engine works on
// directly, and the per-proposal hot loop touches no strings at all.
// Outputs are bit-identical to DeltaPredict: the scan order, the
// CombineScores inputs, and the Predictor calls are the same, only the
// keys changed representation.

package core

import (
	"errors"
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
// speculative exchange workers resynchronize their grids from the
// authoritative state once per batch with this.
func (g *Grid) CopyFrom(src *Grid) {
	g.Hosts, g.SlotsPerHost = src.Hosts, src.SlotsPerHost
	g.cells = append(g.cells[:0], src.cells...)
}

// DeltaPredictIdx is DeltaPredict over the indexed mirror: affected
// lists dense app indexes, out is indexed the same way, and the hot
// loop is int32 scans plus float64 slice loads — no string hashing.
// cache may be nil (plain prediction). Results are bit-identical to
// DeltaPredict on the mirrored placement.
func DeltaPredictIdx(g *Grid, affected []int32, ix *AppsIndex, cache *PredictionCache, out []float64) error {
	if g == nil {
		return errors.New("core: nil grid")
	}
	if out == nil {
		return errors.New("core: nil prediction slice")
	}
	if cache != nil && g.SlotsPerHost == 2 {
		return deltaPredictPair(g, affected, ix, cache, out)
	}
	for _, id := range affected {
		ps, err := appendPressuresIdx(g, id, ix, cache)
		if err != nil {
			return err
		}
		v, err := cache.PredictIdx(id, ix.preds[id], ps)
		if err != nil {
			return err
		}
		out[id] = v
	}
	return nil
}

// deltaPredictPair is the pairwise (two slots per host) hot loop: the
// scan builds, per affected app, both the pressure vector and its
// co-runner ID key words with the table hash folded in as it goes, so
// a steady-state call is int loads, a handful of multiply-folds, and
// one probe per app — no float hashing, no strings, no allocation.
func deltaPredictPair(g *Grid, affected []int32, ix *AppsIndex, cache *PredictionCache, out []float64) error {
	for _, id := range affected {
		ps, kw, h, err := appendPressuresPair(g, id, ix, cache)
		if err != nil {
			return err
		}
		key := -1 - id
		if v, ok := cache.ptW.getW(h, key, kw); ok {
			cache.hits++
			out[id] = v
			continue
		}
		v, err := ix.preds[id].PredictPressures(ps)
		if err != nil {
			return err
		}
		cache.ptW.putW(h, key, kw, v)
		cache.misses++
		out[id] = v
	}
	return nil
}

// PredictIdx is Predict keyed by a dense AppsIndex index instead of a
// name. Indexed keys live in their own half of the keyspace (negative
// internal IDs), so mixing Predict and PredictIdx on one cache can
// never alias two different apps.
func (c *PredictionCache) PredictIdx(id int32, pred Predictor, pressures []float64) (float64, error) {
	if c == nil {
		return pred.PredictPressures(pressures)
	}
	key := -1 - id
	h := hashKey(uint64(uint32(key)), pressures)
	if v, ok := c.pt.get(h, key, pressures); ok {
		c.hits++
		return v, nil
	}
	v, err := pred.PredictPressures(pressures)
	if err != nil {
		return 0, err
	}
	c.pt.put(h, key, pressures, v)
	c.misses++
	return v, nil
}

// appendPressuresIdx is appendPressures over the grid: same scan order
// (host-major, slot order, co-runners in slot order excluding self and
// empties), so the produced vectors — and every CombineScores input —
// are bit-identical to the string path's.
func appendPressuresIdx(g *Grid, id int32, ix *AppsIndex, cache *PredictionCache) ([]float64, error) {
	var out, co []float64
	if cache != nil {
		out, co = cache.ps[:0], cache.co[:0]
	}
	sph := g.SlotsPerHost
	cells := g.cells
	for base := 0; base+sph <= len(cells); base += sph {
		row := cells[base : base+sph]
		for s := range row {
			if row[s] != id {
				continue
			}
			co = co[:0]
			single := int32(-1)
			for o := range row {
				if o == s {
					continue
				}
				other := row[o]
				if other < 0 {
					continue
				}
				if !ix.ok[other] {
					return nil, fmt.Errorf("core: no bubble score for %q", ix.Apps[other])
				}
				single = other
				co = append(co, ix.scores[other])
			}
			combined, err := cache.combineIdx(co, single)
			if err != nil {
				return nil, err
			}
			out = append(out, combined)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: app %q not in placement", ix.Apps[id])
	}
	if cache != nil {
		cache.ps, cache.co = out, co
	}
	return out, nil
}

// appendPressuresPair is appendPressuresIdx specialized for the paper's
// pairwise co-location rule (two slots per host): each unit has at most
// one co-runner, so the slot scan is two direct loads per host and a
// combine is one array probe (cache.c1 / cache.cEmpty) on the hit path.
// Scan order and CombineScores inputs match the generic loop exactly: a
// host contributes slot 0 then slot 1, and a duplicated app contributes
// one unit per slot with its own score as co-runner, just as before.
// Alongside the float vector it returns the unit co-runner IDs encoded
// as key words plus their running multiply-fold hash, which
// deltaPredictPair uses to probe the prediction memo without touching
// the floats again.
func appendPressuresPair(g *Grid, id int32, ix *AppsIndex, cache *PredictionCache) ([]float64, []uint64, uint64, error) {
	out := cache.ps[:0]
	kw := cache.kw[:0]
	h := uint64(uint32(-1-id)) ^ 0x9e3779b97f4a7c15
	cells := g.cells
	for base := 0; base+2 <= len(cells); base += 2 {
		a0, a1 := cells[base], cells[base+1]
		if a0 != id && a1 != id {
			continue
		}
		if a0 == id {
			v, err := combinedOf(cache, ix, a1)
			if err != nil {
				return nil, nil, 0, err
			}
			out = append(out, v)
			w := uint64(uint32(a1)) + 2
			kw = append(kw, w)
			h = (h ^ w) * 0x9ddfea08eb382d69
		}
		if a1 == id {
			v, err := combinedOf(cache, ix, a0)
			if err != nil {
				return nil, nil, 0, err
			}
			out = append(out, v)
			w := uint64(uint32(a0)) + 2
			kw = append(kw, w)
			h = (h ^ w) * 0x9ddfea08eb382d69
		}
	}
	if len(out) == 0 {
		return nil, nil, 0, fmt.Errorf("core: app %q not in placement", ix.Apps[id])
	}
	cache.ps, cache.kw = out, kw
	return out, kw, mix64(h), nil
}

// combinedOf returns the memoized combined pressure exerted on a unit
// whose sole potential co-runner is other (-1: empty slot). The hit
// paths are a bool test and an array load; misses delegate to the
// generic single-element memo fill.
func combinedOf(cache *PredictionCache, ix *AppsIndex, other int32) (float64, error) {
	if other < 0 {
		if cache.cEmptyOK {
			cache.combineHits++
			return cache.cEmpty, nil
		}
		return cache.combineIdx(cache.co[:0], -1)
	}
	if int(other) < len(cache.c1) && cache.c1ok[other] {
		cache.combineHits++
		return cache.c1[other], nil
	}
	if !ix.ok[other] {
		return 0, fmt.Errorf("core: no bubble score for %q", ix.Apps[other])
	}
	cache.co = append(cache.co[:0], ix.scores[other])
	return cache.combineIdx(cache.co, other)
}
