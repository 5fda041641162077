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

// propPred is a synthetic pure predictor with app-specific shape: linear
// in the pressure sum plus a max term, so swaps genuinely move it.
type propPred struct{ per, atMax float64 }

func (f propPred) PredictPressures(ps []float64) (float64, error) {
	var sum, max float64
	for _, p := range ps {
		sum += p
		if p > max {
			max = p
		}
	}
	return 1 + f.per*sum + f.atMax*max, nil
}

// randomProblem draws a random cluster shape, app set, and valid
// placement. The per-host app limit equals the slot count, so every
// slot assignment is valid and swaps are never rejected.
func randomProblem(t *testing.T, r *sim.RNG) (*cluster.Placement, map[string]Predictor, map[string]float64) {
	t.Helper()
	numHosts := 4 + r.Intn(5) // 4..8
	slots := 2
	numApps := 2 + r.Intn(3) // 2..4
	names := []string{"alpha", "beta", "gamma", "delta"}[:numApps]

	capacity := numHosts * slots
	demands := make([]cluster.Demand, numApps)
	total := 0
	for i, n := range names {
		u := 1 + r.Intn(3)
		if total+u > capacity-(numApps-1-i) {
			u = 1
		}
		demands[i] = cluster.Demand{App: n, Units: u}
		total += u
	}
	preds := map[string]Predictor{}
	scores := map[string]float64{}
	for _, n := range names {
		preds[n] = propPred{per: r.Uniform(0.01, 0.4), atMax: r.Uniform(0, 0.2)}
		scores[n] = r.Uniform(0.3, 7)
	}
	p, err := cluster.RandomValidLimit(r.Stream("placement"), numHosts, slots, slots, demands, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p, preds, scores
}

// TestDeltaPredictPosEquivalence is the contract behind the incremental
// search engine, one row per case: the incrementally maintained
// predictions stay bit-identical to PredictPlacement (the production
// reference behind placement.Evaluate) and the postings to a from-scratch
// Rebuild, cached or not, pairwise (2 slots) or generic (3 slots); the
// reject path costs no predictor call; the warm path allocates nothing;
// a Postings copy is independent.
func TestDeltaPredictPosEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		// Over all apps at once, DeltaPredictPos reproduces
		// PredictPlacement exactly — the contract in its smallest form.
		{"full-predict", func(t *testing.T) {
			p, preds, scores, _ := deltaFixture(t)
			for _, cache := range []*PredictionCache{nil, NewPredictionCache()} {
				newPosEngine(t, p, preds, scores, cache).check(t, "full")
			}
		}},
		// A swap re-predicts only the two touched hosts' apps yet leaves
		// the whole slice equal to a full re-prediction, and undoing or
		// redoing it revisits memoized points only.
		{"swap-undo-redo-memoized", func(t *testing.T) {
			p, preds, scores, calls := deltaFixture(t)
			e := newPosEngine(t, p, preds, scores, NewPredictionCache())
			rng := sim.NewRNG(11)
			for i := 0; i < 200; i++ {
				ha, sa, hb, sb := rng.Intn(8), rng.Intn(2), rng.Intn(8), rng.Intn(2)
				if p.At(ha, sa) == p.At(hb, sb) {
					continue
				}
				e.swap(t, ha, sa, hb, sb)
				e.check(t, "after swap")
				before := *calls
				e.swap(t, ha, sa, hb, sb) // undo
				e.swap(t, ha, sa, hb, sb) // redo, so the walk moves on
				if *calls != before {
					t.Fatalf("step %d: undo+redo called the predictor %d times, want 0", i, *calls-before)
				}
			}
		}},
		// Swap/undo walks on the key-breaking fixture, both layouts,
		// every third seed without a cache.
		{"key-breaking-walks", func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				for _, sph := range []int{2, 3} {
					testPosEquivalence(t, seed, sph, seed%3 == 2)
				}
			}
		}},
		// Random problem shapes (host, app and unit counts, predictors
		// with a max term), with real cache traffic.
		{"random-shapes", func(t *testing.T) {
			rng := sim.NewRNG(2016).Stream("property")
			for trial := 0; trial < 25; trial++ {
				r := rng.StreamN("trial", trial)
				p, preds, scores := randomProblem(t, r)
				e := newPosEngine(t, p, preds, scores, NewPredictionCache())
				e.walk(t, fmt.Sprintf("trial %d", trial), r, 40)
				if hits, misses := e.cache.Stats(); hits == 0 || misses == 0 {
					t.Errorf("trial %d: degenerate cache traffic (hits=%d misses=%d)", trial, hits, misses)
				}
			}
		}},
		// On the same random shapes, a cached walk (the pairwise
		// specialization and its index-keyed memo) and a nil-cache walk
		// (the generic path, always recomputing) over the same swaps
		// agree bit for bit at every step.
		{"cached-equals-uncached", func(t *testing.T) {
			rng := sim.NewRNG(2016).Stream("cache-property")
			for trial := 0; trial < 25; trial++ {
				r := rng.StreamN("trial", trial)
				p, preds, scores := randomProblem(t, r)
				cached := newPosEngine(t, p.Clone(), preds, scores, NewPredictionCache())
				bare := newPosEngine(t, p, preds, scores, nil)
				slots := p.NumHosts * p.HostSlots
				for step := 0; step < 30; step++ {
					a, b := r.Intn(slots), r.Intn(slots)
					ha, sa, hb, sb := a/p.HostSlots, a%p.HostSlots, b/p.HostSlots, b%p.HostSlots
					if p.At(ha, sa) == p.At(hb, sb) {
						continue
					}
					cached.swap(t, ha, sa, hb, sb)
					bare.swap(t, ha, sa, hb, sb)
					for i, app := range bare.ix.Apps {
						if math.Float64bits(cached.inc[i]) != math.Float64bits(bare.inc[i]) {
							t.Fatalf("trial %d step %d app %s: cached %v != uncached %v",
								trial, step, app, cached.inc[i], bare.inc[i])
						}
					}
				}
			}
		}},
		// The pairwise path probes the prediction memo before it builds
		// a pressure vector, yet counts combine-memo traffic per unit
		// exactly as building every vector would: a unit is a hit when
		// its co-runner's combine is memoized, else a miss that memoizes
		// it. A reference model of that rule must agree after every call.
		{"pairwise-combine-counts", func(t *testing.T) {
			rng := sim.NewRNG(2016).Stream("combine-counts")
			for trial := 0; trial < 25; trial++ {
				r := rng.StreamN("trial", trial)
				p, preds, scores := randomProblem(t, r)
				e := newPosEngine(t, p, preds, scores, NewPredictionCache())
				memo := map[int32]bool{}
				var hits, misses uint64
				count := func(affected []int32) {
					for _, id := range affected {
						for _, pos := range e.pst.seg(id) {
							if other := e.g.cells[pos^1]; memo[other] {
								hits++
							} else {
								memo[other] = true
								misses++
							}
						}
					}
				}
				count(e.all)
				slots := p.NumHosts * p.HostSlots
				for step := 0; step < 40; step++ {
					a, b := r.Intn(slots), r.Intn(slots)
					ha, sa, hb, sb := a/2, a%2, b/2, b%2
					if p.At(ha, sa) == p.At(hb, sb) {
						continue
					}
					e.swap(t, ha, sa, hb, sb)
					var affected []int32
					for _, h := range []int{ha, hb} {
						for _, id := range e.g.Row(h) {
							if id >= 0 && !slices.Contains(affected, id) {
								affected = append(affected, id)
							}
						}
					}
					count(affected)
					if h, m := e.cache.CombineStats(); h != hits || m != misses {
						t.Fatalf("trial %d step %d: combine hits/misses %d/%d, per-unit rule %d/%d", trial, step, h, m, hits, misses)
					}
				}
				if h, _ := e.cache.Stats(); h == 0 {
					t.Errorf("trial %d: no prediction-memo hit, so the probe-first path went untested", trial)
				}
			}
		}},
		{"warm-zero-alloc-and-copy", func(t *testing.T) {
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
		}},
	} {
		t.Run(tc.name, tc.run)
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
