package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

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

// TestPropertyDeltaPredictMatchesFullPredict is the seeded quick-check
// behind the incremental search engine on random problem shapes (host,
// app and unit counts, predictor shapes with a max term): across
// swap/undo walks the incrementally maintained predictions stay
// bit-identical to a fresh full prediction, with real cache traffic.
func TestPropertyDeltaPredictMatchesFullPredict(t *testing.T) {
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
}

// TestPropertyCacheHitsAreBitIdentical checks the memoization contract
// on the same random shapes: a cached walk (on these two-slot hosts, the
// pairwise specialization and its index-keyed memo) and a nil-cache walk
// (the generic path, always recomputing) over the same swaps agree bit
// for bit at every step.
func TestPropertyCacheHitsAreBitIdentical(t *testing.T) {
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
}
