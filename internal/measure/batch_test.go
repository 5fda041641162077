package measure

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/contention"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// testBackground is a deterministic synthetic background: roughly every
// other (layout, rep, host) combination hosts one extra tenant whose
// memory intensity is drawn from the repetition's stream, like the EC2
// environment but without importing it (which would cycle).
func testBackground(host int, r *sim.RNG) (contention.Occupant, bool) {
	if !r.Bool(0.6) {
		return contention.Occupant{}, false
	}
	return contention.Occupant{
		Name: "bg-tenant",
		Prof: contention.MemProfile{
			CPICore: 1.0, APKI: r.Uniform(3, 10), WSSMB: r.Uniform(4, 16),
			MRMin: 0.3, MRMax: 0.6, Gamma: 2, MLP: 2,
		},
		Cores: 2,
	}, true
}

// newBatchEnv builds an env with a fresh content cache. workers controls
// the batch pool; background toggles the synthetic uncontrolled tenants.
func newBatchEnv(t *testing.T, workers int, background bool) *Env {
	t.Helper()
	e, err := NewEnv(cluster.Default(), 77)
	if err != nil {
		t.Fatal(err)
	}
	e.Reps = 2
	e.UnitCores = 4 // three units plus a background tenant fit on a host
	e.Workers = workers
	e.Cache = NewCache()
	if background {
		e.Background = testBackground
	}
	return e
}

// batchSuite is the request sequence shared by the equivalence tests. It
// exercises every batch kind, plus an exact duplicate to cover in-batch
// aliasing.
func batchSuite(t *testing.T) (a, b, c workloads.Workload, grids [][]float64) {
	t.Helper()
	var err error
	if a, err = workloads.ByName("M.lmps"); err != nil {
		t.Fatal(err)
	}
	if b, err = workloads.ByName("C.libq"); err != nil {
		t.Fatal(err)
	}
	if c, err = workloads.ByName("H.KM"); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 2, 4, 2} { // 2 repeated on purpose
		ps, err := HomogeneousPressures(8, k, 5)
		if err != nil {
			t.Fatal(err)
		}
		grids = append(grids, ps)
	}
	return a, b, c, grids
}

// suiteSteps is the equivalence suite in submission order: each step
// submits one request to a batch and returns what reads the request's
// scalars once that batch has run.
func suiteSteps(t *testing.T) []func(*Batch) func() []float64 {
	t.Helper()
	a, b, c, grids := batchSuite(t)
	scalar := func(h *Value) func() []float64 {
		return func() []float64 {
			v, err := h.Result()
			if err != nil {
				t.Fatal(err)
			}
			return []float64{v}
		}
	}
	var steps []func(*Batch) func() []float64
	for _, ps := range grids {
		steps = append(steps, func(bt *Batch) func() []float64 { return scalar(bt.Normalized(a, ps)) })
	}
	return append(steps,
		func(bt *Batch) func() []float64 { return scalar(bt.CoRunner(a, b, 8, []int{0, 1, 2})) },
		func(bt *Batch) func() []float64 {
			h := bt.Pair(a, b, 8)
			return func() []float64 {
				pr, err := h.Result()
				if err != nil {
					t.Fatal(err)
				}
				return []float64{pr.timeA, pr.timeB, pr.NormalizedA, pr.normalizedB}
			}
		},
		func(bt *Batch) func() []float64 {
			h := bt.Group([]workloads.Workload{a, b, c}, 8)
			return func() []float64 {
				outs, err := h.Outcomes()
				if err != nil {
					t.Fatal(err)
				}
				var out []float64
				for _, o := range outs {
					out = append(out, o.Time, o.Solo, o.Normalized)
				}
				return out
			}
		})
}

// runSuite performs the suite in batches of at most per submissions, all
// in one batch when per is 0, and flattens every scalar produced.
func runSuite(t *testing.T, e *Env, per int) []float64 {
	t.Helper()
	steps := suiteSteps(t)
	if per == 0 {
		per = len(steps)
	}
	var out []float64
	for len(steps) > 0 {
		n := min(per, len(steps))
		bt := e.NewBatch()
		var reads []func() []float64
		for _, s := range steps[:n] {
			reads = append(reads, s(bt))
		}
		if err := bt.Run(); err != nil {
			t.Fatal(err)
		}
		for _, r := range reads {
			out = append(out, r()...)
		}
		steps = steps[n:]
	}
	return out
}

// runSerial performs the suite one batch per submission, as a caller of
// the serial methods would; runBatched performs it as one batch.
func runSerial(t *testing.T, e *Env) []float64  { return runSuite(t, e, 1) }
func runBatched(t *testing.T, e *Env) []float64 { return runSuite(t, e, 0) }

func assertSame(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] { // bit-identical, not approximately equal
			t.Errorf("%s: value %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestBatchMatchesSerialPrivate: on the private cluster one batch must
// return byte-identical values to one batch per submission and to the
// suite split over two batches, at any worker count.
func TestBatchMatchesSerialPrivate(t *testing.T) {
	want := runSerial(t, newBatchEnv(t, 1, false))
	assertSame(t, "two batches", runSuite(t, newBatchEnv(t, 4, false), 4), want)
	for _, workers := range []int{1, 4, 8} {
		assertSame(t, "private", runBatched(t, newBatchEnv(t, workers, false)), want)
	}
}

// TestBatchMatchesSerialBackground: with uncontrolled background tenants
// every body draws neighbours from its layout. One batch per submission,
// the suite split over two batches, and one batch at workers 1, 4 and 8
// must agree to the bit.
func TestBatchMatchesSerialBackground(t *testing.T) {
	want := runSerial(t, newBatchEnv(t, 1, true))
	assertSame(t, "two batches", runSuite(t, newBatchEnv(t, 4, true), 4), want)
	for _, workers := range []int{1, 4, 8} {
		assertSame(t, "background", runBatched(t, newBatchEnv(t, workers, true)), want)
	}
}

// TestBatchConcurrentEnvUse hammers one shared Env from many goroutines,
// each running its own Batch of the full suite; under -race this exercises
// the Env/Cache/solo-cache locking. No value depends on call order, on the
// private cluster or under background tenants, so every goroutine must
// see the reference values.
func TestBatchConcurrentEnvUse(t *testing.T) {
	for _, background := range []bool{false, true} {
		want := runSerial(t, newBatchEnv(t, 1, background))
		shared := newBatchEnv(t, 4, background)
		const goroutines = 8
		results := make([][]float64, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				results[g] = runBatched(t, shared)
			}(g)
		}
		wg.Wait()
		for g, got := range results {
			assertSame(t, fmt.Sprintf("background %t, goroutine %d", background, g), got, want)
		}
	}
}

// TestBackgroundDrawsAreOrderFree: under background tenants a
// measurement's value does not depend on what the env measured before it.
// The suite submitted in order on one env and in reverse on a fresh one
// gives every request the same bits, with the content cache attached and
// without it — and the cached values are the uncached ones.
func TestBackgroundDrawsAreOrderFree(t *testing.T) {
	n := len(suiteSteps(t))
	measure := func(cached, reverse bool) [][]float64 {
		e := newBatchEnv(t, 1, true)
		if !cached {
			e.Cache = nil
		}
		steps, out := suiteSteps(t), make([][]float64, n)
		for k := range steps {
			i := k
			if reverse {
				i = n - 1 - k
			}
			bt := e.NewBatch()
			read := steps[i](bt)
			if err := bt.Run(); err != nil {
				t.Fatal(err)
			}
			out[i] = read()
		}
		return out
	}
	want := measure(false, false)
	for _, cached := range []bool{false, true} {
		for _, reverse := range []bool{false, true} {
			got := measure(cached, reverse)
			for i := range want {
				assertSame(t, fmt.Sprintf("cache %t, reversed %t, request %d", cached, reverse, i), got[i], want[i])
			}
		}
	}
}

// TestCacheKeyBytes pins the content-cache key to its documented words —
// the first word of the SHA-256 of the env fingerprint's rendering, and
// the host layout id, folded here from scratch — for bubble, co-runner and
// group requests planned through the Env, cold and from its interned
// workloads, including two workloads that share a name. Requests that lay
// out different hosts get different keys. Requests that lay out the same
// hosts share one, as they share a value: a -0 and a +0 pressure (no
// bubble either way), and a bubble request with no bubble and a co-runner
// request with no co-runner node.
func TestCacheKeyBytes(t *testing.T) {
	e := newBatchEnv(t, 1, false)
	a, b, c, _ := batchSuite(t)
	renamed := c
	renamed.Name = a.Name // same name, different definition
	fpSum := sha256.Sum256([]byte(fmt.Sprintf("v1|seed=%d|reps=%d|unit=%d|cluster=%+v|bg=false",
		e.Seed, e.Reps, e.UnitCores, e.Cluster)))
	word := func(w workloads.Workload) uint64 {
		d := sha256.Sum256([]byte(fmt.Sprintf("%+v", w)))
		return binary.LittleEndian.Uint64(d[:])
	}
	// layout folds, host by host, the host's index and then its words:
	// each measured unit's digest word and unit index (base for a run on
	// the base profile), then the extra's word.
	const base = ^uint64(0)
	layout := func(hosts ...[]uint64) cacheKey {
		id := uint64(0)
		for h, words := range hosts {
			id = mix64(id ^ uint64(h))
			for _, w := range words {
				id = mix64(id ^ w)
			}
		}
		return cacheKey{binary.LittleEndian.Uint64(fpSum[:]), id}
	}
	keyOf := func(plan func(j *job) error) cacheKey {
		var j job
		if err := plan(&j); err != nil {
			t.Fatal(err)
		}
		return j.key
	}
	bubbles := func(w workloads.Workload, ps ...float64) cacheKey {
		return keyOf(func(j *job) error { return e.planBubbles(j, e.intern(w), ps) })
	}
	coRun := func(w, co workloads.Workload, nodes int, coNodes ...int) cacheKey {
		return keyOf(func(j *job) error { return e.planCoRunner(j, e.intern(w), e.intern(co), nodes, coNodes) })
	}
	group := func(nodes int, apps ...workloads.Workload) cacheKey {
		return keyOf(func(j *job) error { return e.planGroup(j, e.internAll(apps), nodes) })
	}
	for pass := 0; pass < 2; pass++ { // cold, then from the memo
		for _, w := range []workloads.Workload{a, renamed} {
			want := layout([]uint64{word(w), base, math.Float64bits(5)}, []uint64{word(w), base})
			if got := bubbles(w, 5, 0); got != want {
				t.Errorf("pass %d, bubbles key of %s: got %x, want %x", pass, w.Name, got, want)
			}
		}
		want := layout([]uint64{word(a), base, word(b)}, []uint64{word(a), base}, []uint64{word(a), base, word(b)})
		if got := coRun(a, b, 3, 2, 0); got != want {
			t.Errorf("pass %d, co-runner key: got %x, want %x", pass, got, want)
		}
		want = layout([]uint64{word(a), 0, word(b), 0, word(c), 0}, []uint64{word(a), 1, word(b), 1, word(c), 1})
		if got := group(2, a, b, c); got != want {
			t.Errorf("pass %d, group key: got %x, want %x", pass, got, want)
		}
	}
	distinct := map[cacheKey]string{}
	for name, k := range map[string]cacheKey{
		"a":             bubbles(a, 0, 1),
		"renamed":       bubbles(renamed, 0, 1),
		"moved":         bubbles(a, 1, 0),
		"wider":         bubbles(a, 0, 1, 0),
		"co-runner":     coRun(a, a, 2, 1),
		"group":         group(2, a),
		"pair":          group(2, a, b),
		"swapped pair":  group(2, b, a),
		"bare, 2 hosts": bubbles(a, 0, 0),
	} {
		if k == (cacheKey{}) {
			t.Errorf("%s: zero key with caching enabled", name)
		}
		if prev, ok := distinct[k]; ok {
			t.Errorf("%s and %s share a key", name, prev)
		}
		distinct[k] = name
	}
	if bubbles(a, math.Copysign(0, -1), 1) != bubbles(a, 0, 1) {
		t.Error("a -0 and a +0 pressure lay out the same hosts but got different keys")
	}
	if coRun(a, b, 2) != bubbles(a, 0, 0) {
		t.Error("a co-runner request with no co-runner node and a bubble request with no bubble lay out the same hosts but got different keys")
	}
}

// TestBatchPlanErrorPoisons: an invalid submission fails its own handle and
// every later one, exactly like a serial loop that stops at the first
// error; already-planned work still completes.
func TestBatchPlanErrorPoisons(t *testing.T) {
	e := newBatchEnv(t, 2, false)
	a, _, _, grids := batchSuite(t)
	b := e.NewBatch()
	ok := b.Normalized(a, grids[0])
	bad := b.Normalized(a, make([]float64, 99)) // more nodes than hosts
	poisoned := b.Normalized(a, grids[1])
	err := b.Run()
	if err == nil {
		t.Fatal("Run should surface the plan error")
	}
	if _, okErr := ok.Result(); okErr != nil {
		t.Errorf("pre-error handle failed: %v", okErr)
	}
	if _, badErr := bad.Result(); badErr == nil {
		t.Error("invalid submission should fail its handle")
	}
	if _, poisonErr := poisoned.Result(); poisonErr == nil {
		t.Error("submissions after a plan error should be poisoned")
	}
}

// TestBatchHandleLifecycle: results are unavailable before Run, and a batch
// can only run once.
func TestBatchHandleLifecycle(t *testing.T) {
	e := newBatchEnv(t, 1, false)
	a, _, _, grids := batchSuite(t)
	b := e.NewBatch()
	h := b.Normalized(a, grids[0])
	if _, err := h.Result(); err == nil || !strings.Contains(err.Error(), "not run") {
		t.Errorf("Result before Run = %v, want 'not run' error", err)
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Result(); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(); err == nil {
		t.Error("second Run should fail")
	}
}

// TestBatchAliasesDuplicates: two submissions with identical content must
// produce one measurement; the duplicate is served by the cache/alias path
// and counts as a hit.
func TestBatchAliasesDuplicates(t *testing.T) {
	e := newBatchEnv(t, 2, false)
	a, _, _, grids := batchSuite(t)
	ps := grids[1]
	b := e.NewBatch()
	h1 := b.bubbles(a, ps)
	h2 := b.bubbles(a, ps)
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	v1, err1 := h1.Result()
	v2, err2 := h2.Result()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if v1 != v2 {
		t.Errorf("aliased duplicate diverged: %v vs %v", v1, v2)
	}
	if e.Cache.Hits() == 0 {
		t.Error("duplicate submission did not count as a cache hit")
	}
}
