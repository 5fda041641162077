// Per-app unit postings and the incremental predictor built on them. A
// swap's affected apps occupy a handful of slots, so finding them by
// walking every cell of the cluster is ~99% wasted loads at fleet scale
// (thousands of hosts, a few units per app). Postings keeps, for each
// dense app index, the sorted list of flat grid positions its units
// occupy, maintained incrementally under the same Swap calls that keep
// the Grid in sync. Positions ascend, and a flat position ordering is
// exactly the host-major/slot-minor order PressuresFor scans in, so the
// pressure vectors built from a postings walk are bit-identical to
// PressuresFor's — same elements, same order, same CombineScores inputs.
package core

import (
	"errors"
	"fmt"
	"slices"
)

// Postings maps each dense app index to the ascending flat grid
// positions (host*SlotsPerHost+slot) of its units. Swaps conserve each
// app's unit count, so the segment layout is fixed for a whole search:
// app i's positions live in pos[off[i]:off[i+1]], and a swap only
// rewrites values inside the two touched segments.
type Postings struct {
	off []int32 // segment starts, len = napps+1
	pos []int32 // flat positions, ascending within each segment
	cur []int32 // build scratch (per-app fill cursors)
}

// NewPostings builds the postings of g over napps dense app indexes.
// Every non-negative cell value must be < napps.
func NewPostings(g *Grid, napps int) *Postings {
	p := &Postings{}
	p.Rebuild(g, napps)
	return p
}

// Rebuild recomputes the postings from scratch, reusing capacity.
func (p *Postings) Rebuild(g *Grid, napps int) {
	p.off = slices.Grow(p.off[:0], napps+1)[:napps+1]
	clear(p.off)
	for _, id := range g.cells {
		if id >= 0 {
			p.off[id+1]++
		}
	}
	for i := 1; i <= napps; i++ {
		p.off[i] += p.off[i-1]
	}
	total := int(p.off[napps])
	p.pos = slices.Grow(p.pos[:0], total)[:total]
	p.cur = append(p.cur[:0], p.off[:napps]...)
	for c, id := range g.cells {
		if id < 0 {
			continue
		}
		p.pos[p.cur[id]] = int32(c)
		p.cur[id]++
	}
}

// CopyFrom makes p an independent copy of src, reusing capacity. The
// speculative exchange workers copy the authoritative postings once per
// search with this, then follow them by replaying their swaps.
func (p *Postings) CopyFrom(src *Postings) {
	p.off = append(p.off[:0], src.off...)
	p.pos = append(p.pos[:0], src.pos...)
}

// seg returns app id's position segment.
func (p *Postings) seg(id int32) []int32 {
	return p.pos[p.off[id]:p.off[id+1]]
}

// Units returns the unit count of app id.
func (p *Postings) Units(id int32) int {
	return int(p.off[id+1] - p.off[id])
}

// Swap updates the postings after g.Swap(hostA, slotA, hostB, slotB)
// has already been applied to the mirrored grid — call order is grid
// first, postings second, for both apply and undo (the update is its
// own inverse under the reversed grid state).
func (p *Postings) Swap(g *Grid, hostA, slotA, hostB, slotB int) {
	i := int32(hostA*g.SlotsPerHost + slotA)
	j := int32(hostB*g.SlotsPerHost + slotB)
	if i == j {
		return
	}
	// Post-swap, cell j holds what was at i and vice versa.
	a, b := g.cells[j], g.cells[i]
	if a == b {
		return
	}
	if a >= 0 {
		p.move(a, i, j)
	}
	if b >= 0 {
		p.move(b, j, i)
	}
}

// move replaces position from with to inside app's segment and restores
// ascending order by bubbling — segments hold one entry per unit, so
// this is a handful of compares for any realistic demand.
func (p *Postings) move(app, from, to int32) {
	seg := p.seg(app)
	k := 0
	for seg[k] != from {
		k++
	}
	seg[k] = to
	for k+1 < len(seg) && seg[k] > seg[k+1] {
		seg[k], seg[k+1] = seg[k+1], seg[k]
		k++
	}
	for k > 0 && seg[k] < seg[k-1] {
		seg[k], seg[k-1] = seg[k-1], seg[k]
		k--
	}
}

// DeltaPredictPos re-predicts only the affected applications (dense
// indexes) of g and writes the results into out by index, leaving every
// other entry untouched — the package's one incremental predictor.
// Calling it with the apps on two swapped hosts turns a full placement
// re-prediction into a two-host delta: an application with no unit on a
// touched host keeps its pressure vector, hence its prediction. Per
// affected app it builds the cache key by walking the app's own unit
// positions, so the per-app cost is O(units), not O(cluster); on a
// prediction-memo hit that is all it does, and on a miss it builds the
// pressure vector from the memoized per-unit combines. Results are
// bit-identical to predicting each app from PressuresFor on the named
// form of g. pst must mirror g, and cache must be bound to ix (see
// PredictionCache.Reset).
func DeltaPredictPos(g *Grid, pst *Postings, affected []int32, ix *AppsIndex, cache *PredictionCache, out []float64) error {
	if g == nil {
		return errors.New("core: nil grid")
	}
	if pst == nil {
		return errors.New("core: nil postings")
	}
	if cache == nil {
		return errors.New("core: nil prediction cache")
	}
	if out == nil {
		return errors.New("core: nil prediction slice")
	}
	per := max(g.SlotsPerHost-1, 1) // key words per unit
	for _, id := range affected {
		seg := pst.seg(id)
		units := len(seg)
		if units == 0 {
			return fmt.Errorf("core: app %q not in placement", ix.Apps[id])
		}
		kw, h := cache.key(g, seg, id)
		if v, ok := cache.pt.get(h, id, kw); ok {
			// The entry was stored after every unit's combine was
			// memoized, so each unit is a combine-memo hit, as building
			// the vector would have counted it.
			cache.combineHits += uint64(units)
			cache.hits++
			out[id] = v
			continue
		}
		ps := scratch(&cache.ps, units)
		for u := range ps {
			c, err := cache.combined(ix, kw[u*per:(u+1)*per])
			if err != nil {
				return err
			}
			ps[u] = c
		}
		v, err := ix.preds[id].PredictPressures(ps)
		if err != nil {
			return err
		}
		cache.pt.put(h, id, kw, v)
		cache.misses++
		out[id] = v
	}
	return nil
}

// scratch returns the first n elements of the scratch buffer *buf,
// growing it only when it is too short: the hot path reuses its buffers
// without storing a slice header — and paying a GC write barrier — on
// every call.
func scratch[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n, 2*n)
	}
	return (*buf)[:n]
}
