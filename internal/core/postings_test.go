package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// checkPostings verifies the incremental postings invariants against a
// from-scratch rebuild: identical segment layout and positions (which
// implies per-segment ascending order, since Rebuild emits scan order).
func checkPostings(t testing.TB, tag string, g *Grid, pst *Postings, napps int) {
	t.Helper()
	fresh := NewPostings(g, napps)
	if !slices.Equal(fresh.off, pst.off) {
		t.Fatalf("%s: off = %v, want %v (rebuild)", tag, pst.off, fresh.off)
	}
	if !slices.Equal(fresh.pos, pst.pos) {
		t.Fatalf("%s: pos = %v, want %v (rebuild)", tag, pst.pos, fresh.pos)
	}
}

// posEngine is the index form of one placement plus the incrementally
// maintained prediction slice — what the placement search's engine holds.
type posEngine struct {
	p      *cluster.Placement // the named form, swapped in lockstep
	preds  map[string]Predictor
	scores map[string]float64
	ix     *AppsIndex
	g      *Grid
	pst    *Postings
	cache  *PredictionCache // nil: plain prediction
	all    []int32
	inc    []float64
}

func newPosEngine(t testing.TB, p *cluster.Placement, preds map[string]Predictor, scores map[string]float64, cache *PredictionCache) *posEngine {
	t.Helper()
	ix, err := NewAppsIndex(p.Apps(), preds, scores)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(p, ix)
	if err != nil {
		t.Fatal(err)
	}
	e := &posEngine{p: p, preds: preds, scores: scores, ix: ix, g: g, pst: NewPostings(g, len(ix.Apps)), cache: cache,
		inc: make([]float64, len(ix.Apps))}
	for i := range ix.Apps {
		e.all = append(e.all, int32(i))
	}
	if err := DeltaPredictPos(g, e.pst, e.all, ix, cache, e.inc); err != nil {
		t.Fatal(err)
	}
	return e
}

// swap applies one swap to the named placement, the grid and the
// postings, and incrementally re-predicts only the apps on the two
// touched hosts (rows ha then hb, slot order — the engine's order).
func (e *posEngine) swap(t testing.TB, ha, sa, hb, sb int) {
	t.Helper()
	if err := e.p.Swap(ha, sa, hb, sb); err != nil {
		t.Fatal(err)
	}
	e.g.Swap(ha, sa, hb, sb)
	e.pst.Swap(e.g, ha, sa, hb, sb)
	var affected []int32
	for _, h := range []int{ha, hb} {
		for _, id := range e.g.Row(h) {
			if id >= 0 && !slices.Contains(affected, id) {
				affected = append(affected, id)
			}
		}
	}
	if err := DeltaPredictPos(e.g, e.pst, affected, e.ix, e.cache, e.inc); err != nil {
		t.Fatal(err)
	}
}

// check demands that the incrementally maintained predictions equal a
// fresh PredictPlacement of the named form bit for bit, and that the
// incrementally maintained postings equal a from-scratch Rebuild.
func (e *posEngine) check(t testing.TB, tag string) {
	t.Helper()
	checkPostings(t, tag, e.g, e.pst, len(e.ix.Apps))
	want, err := PredictPlacement(e.p, e.preds, e.scores)
	if err != nil {
		t.Fatalf("%s: reference: %v", tag, err)
	}
	if len(want) != len(e.inc) {
		t.Fatalf("%s: %d apps predicted, reference has %d", tag, len(e.inc), len(want))
	}
	for i, a := range e.ix.Apps {
		if u := e.pst.Units(int32(i)); u != e.p.UnitsOf(a) {
			t.Fatalf("%s: Units(%q) = %d, want %d", tag, a, u, e.p.UnitsOf(a))
		}
		if math.Float64bits(e.inc[i]) != math.Float64bits(want[a]) {
			t.Fatalf("%s: app %q = %v incrementally, want %v (bit-exact)", tag, a, e.inc[i], want[a])
		}
	}
}

// walk drives a random swap/undo walk: every proposal is applied and
// checked, and about half are then undone and checked again, exactly as
// the search's reject path leaves the state. (Every fixture allows as
// many distinct apps per host as it has slots, so no swap is invalid.)
func (e *posEngine) walk(t testing.TB, tag string, r *sim.RNG, steps int) {
	t.Helper()
	e.check(t, tag+" cold")
	sph := e.p.HostSlots
	slots := e.p.NumHosts * sph
	for step := 0; step < steps; step++ {
		a, b := r.Intn(slots), r.Intn(slots)
		ha, sa, hb, sb := a/sph, a%sph, b/sph, b%sph
		if e.p.At(ha, sa) == e.p.At(hb, sb) {
			continue
		}
		e.swap(t, ha, sa, hb, sb)
		e.check(t, fmt.Sprintf("%s step=%d", tag, step))
		if r.Bool(0.5) {
			e.swap(t, ha, sa, hb, sb)
			e.check(t, fmt.Sprintf("%s step=%d undo", tag, step))
		}
	}
}

// testPosEquivalence is the property behind the incremental search
// engine, on a fixture built to break key schemes: an app name holding a
// NUL byte, a -0 bubble score (so pressures of both zero signs occur),
// apps with several units per host, and — beyond two slots per host —
// multi-co-runner combines.
func testPosEquivalence(t testing.TB, seed int64, sph int, nilCache bool) {
	demands := []cluster.Demand{
		{App: "a", Units: 3}, {App: "b", Units: 4},
		{App: "c\x00c", Units: 4}, {App: "d", Units: 2},
	}
	limit := 0
	if sph != 2 {
		limit = sph // beyond the pairwise rule: allow sph distinct apps
	}
	p, err := cluster.RandomValidLimit(sim.NewRNG(seed), 7, sph, limit, demands, 0)
	if err != nil {
		t.Fatal(err)
	}
	scores := map[string]float64{"a": 0.5, "b": 0.5, "c\x00c": 6, "d": math.Copysign(0, -1)}
	preds := map[string]Predictor{
		"a": sumPred{0.3}, "b": sumPred{0.01}, "c\x00c": sumPred{0.02}, "d": sumPred{0.05},
	}
	cache := NewPredictionCache()
	if nilCache {
		cache = nil
	}
	e := newPosEngine(t, p, preds, scores, cache)
	e.walk(t, fmt.Sprintf("seed=%d sph=%d", seed, sph), sim.NewRNG(seed+1000), 60)
}

// TestDeltaPredictPosEquivalence: across random placements and swap/undo
// walks — pairwise (2 slots) and generic (3 slots) layouts, cached and
// nil-cache — the incrementally maintained predictions stay bit-identical
// to PredictPlacement (the production reference behind
// placement.Evaluate) and the postings to a from-scratch Rebuild; the
// warm path allocates nothing; a Postings copy is independent.
func TestDeltaPredictPosEquivalence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		for _, sph := range []int{2, 3} {
			testPosEquivalence(t, seed, sph, seed%3 == 2)
		}
	}

	for _, sph := range []int{2, 3} {
		p, err := cluster.RandomValidLimit(sim.NewRNG(5), 8, sph, sph,
			[]cluster.Demand{{App: "a", Units: 4}, {App: "b", Units: 4}, {App: "c", Units: 4}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		e := newPosEngine(t, p, map[string]Predictor{"a": sumPred{0.3}, "b": sumPred{0.01}, "c": sumPred{0.02}},
			map[string]float64{"a": 0.5, "b": 2, "c": 6}, NewPredictionCache())
		if allocs := testing.AllocsPerRun(200, func() {
			if err := DeltaPredictPos(e.g, e.pst, e.all, e.ix, e.cache, e.inc); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("sph=%d: warm DeltaPredictPos allocates %v/run, want 0", sph, allocs)
		}

		var cp Postings
		cp.CopyFrom(e.pst)
		checkPostings(t, "copy", e.g, &cp, len(e.ix.Apps))
		cp.pos[0] = -99
		checkPostings(t, "copy-independent", e.g, e.pst, len(e.ix.Apps))
	}
}

// FuzzDeltaPredictPosEquivalence is the fuzz form of the property:
// whatever the layout seed, slot count, and swap stream.
func FuzzDeltaPredictPosEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(2), false)
	f.Add(int64(2), uint8(3), false)
	f.Add(int64(3), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, sphRaw uint8, nilCache bool) {
		testPosEquivalence(t, seed, 2+int(sphRaw%3), nilCache) // 2..4 slots per host
	})
}
