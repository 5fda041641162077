package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
)

// liveHeap is the heap still reachable after two full collections (the
// second frees what the first's finalizers and pool clearing released).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMemoryBoundedUnderDistinctTraffic: a long-running service keeps
// nothing per request. 10 000 distinct placements (eighteen apps with
// distinct bubble scores, four of them per request at varying unit counts,
// a fresh seed each, the default 600 iterations) go through one service —
// registry, tracer ring, decision sink and all — and the live heap between the 2 000th
// and the last request may grow by at most 1 MB, i.e. ~130 bytes per
// request. The cross-request prediction cache this service used to own
// never evicted and grew ~2.5 KB per such request: ~20 MB over this window.
func TestMemoryBoundedUnderDistinctTraffic(t *testing.T) {
	const (
		requests  = 10_000
		warm      = 2_000
		maxGrowth = 1 << 20
	)
	b := Backend{Predictors: map[string]core.Predictor{}, Scores: map[string]float64{}}
	var apps []string
	for i := 0; i < 18; i++ {
		app := fmt.Sprintf("app%02d", i)
		apps = append(apps, app)
		b.Predictors[app] = linPred{0.01 + 0.02*float64(i)}
		b.Scores[app] = 0.5 + 0.37*float64(i)
	}
	handedOn := 0 // one worker: only it writes, and Close joins it
	s, _, _ := newTestService(t, func(c *Config) {
		c.Iterations, c.Workers = 0, 1
		c.OnDecision = func(Decision) { handedOn++ }
	})
	s.SetBackend(b)

	rng := rand.New(rand.NewSource(1))
	var base uint64
	for i := 0; i < requests; i++ {
		if i == warm {
			base = liveHeap()
		}
		req := PlaceRequest{Seed: int64(i + 1)}
		for j, a := range rng.Perm(len(apps))[:4] {
			req.Apps = append(req.Apps, AppDemand{App: apps[a], Units: 3 + (i+j)%2})
		}
		mustPlace(t, s, req)
	}
	end := liveHeap()
	if s.Close(); handedOn != requests {
		t.Errorf("sink saw %d of %d decisions", handedOn, requests)
	}
	t.Logf("live heap %d -> %d over %d requests", base, end, requests-warm)
	if end > base+maxGrowth {
		t.Errorf("live heap grew %d bytes over %d requests (%d -> %d), want at most %d",
			end-base, requests-warm, base, end, maxGrowth)
	}
}
