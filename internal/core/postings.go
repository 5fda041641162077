// Per-app unit postings and the incremental predictor built on them. A
// swap's affected apps occupy a handful of slots, so finding them by
// walking every cell of the cluster is ~99% wasted loads at fleet scale
// (thousands of hosts, a few units per app). Postings keeps, for each
// dense app index, the sorted list of flat grid positions its units
// occupy, maintained incrementally under the same Swap calls that keep
// the Grid in sync. Positions ascend, and a flat position ordering is
// exactly the host-major/slot-minor order PressuresFor scans in, so the
// pressure vectors built from a postings walk are bit-identical to a
// full PredictPlacement's — same elements, same order, same
// CombineScores inputs.
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
// speculative exchange workers resynchronize their engines from the
// authoritative state once per batch with this.
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
// touched host keeps its pressure vector, hence its prediction. Each
// pressure vector is built by walking the app's own unit positions, so
// the per-app cost is O(units), not O(cluster), and results are
// bit-identical to PredictPlacement on the named form of g. pst must
// mirror g; cache may be nil (plain prediction).
func DeltaPredictPos(g *Grid, pst *Postings, affected []int32, ix *AppsIndex, cache *PredictionCache, out []float64) error {
	if g == nil {
		return errors.New("core: nil grid")
	}
	if pst == nil {
		return errors.New("core: nil postings")
	}
	if out == nil {
		return errors.New("core: nil prediction slice")
	}
	if cache != nil && g.SlotsPerHost == 2 {
		// The pairwise hot loop: per affected app, int loads, a handful of
		// multiply-folds, and one probe — no float hashing, no allocation.
		for _, id := range affected {
			ps, kw, h, err := appendPressuresPairPos(g, pst, id, ix, cache)
			if err != nil {
				return err
			}
			if v, ok := cache.ptW.getW(h, id, kw); ok {
				cache.hits++
				out[id] = v
				continue
			}
			v, err := ix.preds[id].PredictPressures(ps)
			if err != nil {
				return err
			}
			cache.ptW.putW(h, id, kw, v)
			cache.misses++
			out[id] = v
		}
		return nil
	}
	for _, id := range affected {
		ps, err := appendPressuresPos(g, pst, id, ix, cache)
		if err != nil {
			return err
		}
		v, err := cache.predict(id, ix.preds[id], ps)
		if err != nil {
			return err
		}
		out[id] = v
	}
	return nil
}

// appendPressuresPairPos builds app id's pressure vector under the
// paper's pairwise co-location rule (two slots per host): position p's
// sole co-runner slot is p^1, so each unit is one load and one combine
// probe (cache.c1 / cache.cEmpty on the hit path). A host carrying the
// app in both slots contributes position 2h then 2h+1, each with the
// app's own score as co-runner — the order PressuresFor emits. Alongside
// the float vector it returns the unit co-runner indexes encoded as key
// words plus their multiply-fold hash, which DeltaPredictPos uses to
// probe the prediction memo without touching the floats again.
func appendPressuresPairPos(g *Grid, pst *Postings, id int32, ix *AppsIndex, cache *PredictionCache) ([]float64, []uint64, uint64, error) {
	out := cache.ps[:0]
	kw := cache.kw[:0]
	h := uint64(id) ^ 0x9e3779b97f4a7c15
	cells := g.cells
	seg := pst.seg(id)
	for _, p := range seg {
		other := cells[p^1]
		v, err := cache.combinedOf(ix, other)
		if err != nil {
			return nil, nil, 0, err
		}
		out = append(out, v)
		w := uint64(uint32(other)) + 2
		kw = append(kw, w)
		h = (h ^ w) * 0x9ddfea08eb382d69
	}
	if len(out) == 0 {
		return nil, nil, 0, fmt.Errorf("core: app %q not in placement", ix.Apps[id])
	}
	cache.ps, cache.kw = out, kw
	return out, kw, mix64(h), nil
}

// appendPressuresPos builds app id's pressure vector for any slot count:
// per unit, the co-runners are the other occupied slots of its host in
// slot order (skipping self and empties), exactly as PressuresFor walks
// them. With a cache the vector lives in its scratch buffers and is only
// valid until the next call; a nil cache allocates fresh slices.
func appendPressuresPos(g *Grid, pst *Postings, id int32, ix *AppsIndex, cache *PredictionCache) ([]float64, error) {
	var out, co []float64
	if cache != nil {
		out, co = cache.ps[:0], cache.co[:0]
	}
	sph := g.SlotsPerHost
	cells := g.cells
	for _, pi := range pst.seg(id) {
		p := int(pi)
		s := p % sph
		base := p - s
		row := cells[base : base+sph]
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
		combined, err := cache.combine(co, single)
		if err != nil {
			return nil, err
		}
		out = append(out, combined)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: app %q not in placement", ix.Apps[id])
	}
	if cache != nil {
		cache.ps, cache.co = out, co
	}
	return out, nil
}
