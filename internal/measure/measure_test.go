package measure

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/contention"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func newTestEnv(t *testing.T) *Env {
	t.Helper()
	e, err := NewEnv(cluster.Default(), 42)
	if err != nil {
		t.Fatal(err)
	}
	e.Reps = 2 // keep tests fast
	return e
}

func wl(t *testing.T, name string) workloads.Workload {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewEnvValidates(t *testing.T) {
	if _, err := NewEnv(cluster.Cluster{}, 1); err == nil {
		t.Error("invalid cluster should fail")
	}
	small := cluster.Default()
	small.HostSpec.Cores = cluster.UnitCores - 1
	if _, err := NewEnv(small, 1); err == nil {
		t.Error("a host smaller than one unit should fail")
	}
	e, err := NewEnv(cluster.Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.UnitCores != cluster.UnitCores || e.Reps != 3 {
		t.Errorf("defaults: UnitCores=%d Reps=%d", e.UnitCores, e.Reps)
	}
}

func TestRunWithBubblesValidation(t *testing.T) {
	e := newTestEnv(t)
	w := wl(t, "M.lmps")
	if _, err := e.RunWithBubbles(w, nil); err == nil {
		t.Error("empty pressures should fail")
	}
	if _, err := e.RunWithBubbles(w, make([]float64, 9)); err == nil {
		t.Error("more nodes than hosts should fail")
	}
}

func TestHomogeneousPressures(t *testing.T) {
	ps, err := HomogeneousPressures(8, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 8 || ps[0] != 5 || ps[2] != 5 || ps[3] != 0 {
		t.Errorf("pressures = %v", ps)
	}
	for _, bad := range [][2]int{{0, 0}, {4, 5}, {4, -1}} {
		if _, err := HomogeneousPressures(bad[0], bad[1], 1); err == nil {
			t.Errorf("config %v should fail", bad)
		}
	}
}

func TestNormalizedSoloIsOne(t *testing.T) {
	e := newTestEnv(t)
	w := wl(t, "M.lmps")
	ps, _ := HomogeneousPressures(8, 0, 0)
	got, err := e.NormalizedWithBubbles(w, ps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("solo normalized = %v, want exactly 1 (cached)", got)
	}
}

func TestBubbleInterferenceSlowsDown(t *testing.T) {
	e := newTestEnv(t)
	w := wl(t, "M.milc")
	ps, _ := HomogeneousPressures(8, 4, 6)
	got, err := e.NormalizedWithBubbles(w, ps)
	if err != nil {
		t.Fatal(err)
	}
	if got < 1.3 {
		t.Errorf("M.milc under heavy bubbles normalized = %v, want substantial slowdown", got)
	}
}

func TestPropagationClassesEndToEnd(t *testing.T) {
	e := newTestEnv(t)
	// One interfering node at pressure 6: the BSP app should jump, the
	// Hadoop app should stay near 1, the wavefront app in between.
	one := func(name string) float64 {
		ps, _ := HomogeneousPressures(8, 1, 6)
		got, err := e.NormalizedWithBubbles(wl(t, name), ps)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	milc := one("M.milc")
	gems := one("M.Gems")
	km := one("H.KM")
	if !(km < gems && gems < milc) {
		t.Errorf("propagation ordering violated: H.KM=%v M.Gems=%v M.milc=%v", km, gems, milc)
	}
	if km > 1.15 {
		t.Errorf("H.KM with one interfering node = %v, want near 1", km)
	}
	if milc < 1.4 {
		t.Errorf("M.milc with one interfering node = %v, want a large jump", milc)
	}
}

func TestSoloCaching(t *testing.T) {
	e := newTestEnv(t)
	w := wl(t, "M.zeus")
	a, err := e.Solo(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Solo(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("solo cache should return identical values")
	}
	c, err := e.Solo(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different node counts should be cached separately")
	}
}

func TestRunWithCoRunner(t *testing.T) {
	e := newTestEnv(t)
	lmps := wl(t, "M.lmps")
	libq := wl(t, "C.libq")
	solo, err := e.Solo(lmps, 8)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := coRunner(e, lmps, libq, 8, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	t8, err := coRunner(e, lmps, libq, 8, []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if t1 <= solo {
		t.Errorf("one libq node should slow lammps: %v vs solo %v", t1, solo)
	}
	if t8 < t1 {
		t.Errorf("full interference %v should exceed single-node %v", t8, t1)
	}
	// The Figure 2 shape: the single-node jump is most of the total.
	jump := (t1 - solo) / (t8 - solo)
	if jump < 0.4 {
		t.Errorf("lammps jump fraction = %v, want the high-propagation shape (>0.4)", jump)
	}
	if _, err := coRunner(e, lmps, libq, 8, []int{9}); err == nil {
		t.Error("out-of-range co-runner node should fail")
	}
	if _, err := coRunner(e, lmps, libq, 0, nil); err == nil {
		t.Error("zero nodes should fail")
	}
}

// coRunner measures w beside co in a batch of its own.
func coRunner(e *Env, w, co workloads.Workload, nodes int, coNodes []int) (float64, error) {
	b := e.NewBatch()
	h := b.CoRunner(w, co, nodes, coNodes)
	_ = b.Run() // the handle reports the same error
	return h.Result()
}

// TestSoloKeyedByDefinition: a workload that shares its name with another
// but not its definition normalizes against its own solo baseline, not the
// other's, serially and in a batch. Without bubbles its normalized time is
// then exactly 1.
func TestSoloKeyedByDefinition(t *testing.T) {
	lmps := wl(t, "M.lmps")
	longer := lmps
	longer.App.Iterations *= 2
	quiet := make([]float64, 8)
	for _, batched := range []bool{false, true} {
		e := newTestEnv(t)
		if _, err := e.Solo(lmps, 8); err != nil {
			t.Fatal(err)
		}
		var got float64
		var err error
		if batched {
			b := e.NewBatch()
			h := b.Normalized(longer, quiet)
			_ = b.Run() // the handle reports the same error
			got, err = h.Result()
		} else {
			got, err = e.NormalizedWithBubbles(longer, quiet)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Errorf("batched %t: %s with twice the iterations normalizes to %v alone, want 1", batched, longer.Name, got)
		}
	}
}

func TestRunPair(t *testing.T) {
	e := newTestEnv(t)
	a := wl(t, "M.milc")
	b := wl(t, "C.libq")
	res, err := pair(e, a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.NormalizedA <= 1 {
		t.Errorf("M.milc co-run with C.libq should slow down, normalized = %v", res.NormalizedA)
	}
	if res.normalizedB < 1 {
		t.Errorf("normalized below 1: %v", res.normalizedB)
	}
	if res.timeA <= 0 || res.timeB <= 0 {
		t.Error("non-positive times")
	}
	if _, err := pair(e, a, b, 0); err == nil {
		t.Error("zero nodes should fail")
	}
}

func TestRunPlacement(t *testing.T) {
	e := newTestEnv(t)
	reg := workloads.Registry()
	p, err := cluster.PackedPlacement(8, 2, []cluster.Demand{
		{App: "M.milc", Units: 4}, {App: "C.libq", Units: 4},
		{App: "H.KM", Units: 4}, {App: "M.lmps", Units: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.RunPlacement(p, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("outcomes = %d apps, want 4", len(out))
	}
	for name, o := range out {
		if o.Time <= 0 || o.Solo <= 0 {
			t.Errorf("%s: non-positive times %+v", name, o)
		}
		if o.Normalized < 0.9 {
			t.Errorf("%s: normalized %v suspiciously below 1", name, o.Normalized)
		}
		if o.Nodes != 4 {
			t.Errorf("%s: nodes = %d, want 4 (one logical node per unit)", name, o.Nodes)
		}
	}
}

func TestRunPlacementSeparatedIsFaster(t *testing.T) {
	e := newTestEnv(t)
	reg := workloads.Registry()
	// Packed: milc shares both hosts with libq (worst case).
	shared, err := cluster.NewPlacement(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 4; h++ {
		_ = shared.Set(h, 0, "M.milc")
		_ = shared.Set(h, 1, "C.libq")
	}
	// Separated: each app alone on its hosts.
	apart, err := cluster.PackedPlacement(8, 2, []cluster.Demand{
		{App: "M.milc", Units: 4}, {App: "C.libq", Units: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	outShared, err := e.RunPlacement(shared, reg)
	if err != nil {
		t.Fatal(err)
	}
	outApart, err := e.RunPlacement(apart, reg)
	if err != nil {
		t.Fatal(err)
	}
	if outShared["M.milc"].Normalized <= outApart["M.milc"].Normalized {
		t.Errorf("co-located milc (%v) should be slower than separated (%v)",
			outShared["M.milc"].Normalized, outApart["M.milc"].Normalized)
	}
}

func TestRunPlacementValidation(t *testing.T) {
	e := newTestEnv(t)
	reg := workloads.Registry()
	if _, err := e.RunPlacement(nil, reg); err == nil {
		t.Error("nil placement should fail")
	}
	empty, _ := cluster.NewPlacement(2, 2)
	if _, err := e.RunPlacement(empty, reg); err == nil {
		t.Error("empty placement should fail")
	}
	unknown, _ := cluster.NewPlacement(2, 2)
	_ = unknown.Set(0, 0, "mystery")
	if _, err := e.RunPlacement(unknown, reg); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestBackgroundInjection(t *testing.T) {
	e := newTestEnv(t)
	e.UnitCores = 4 // leave room for background occupants
	calls := 0
	e.Background = func(host int, r *sim.RNG) (contention.Occupant, bool) {
		calls++
		return contention.Occupant{
			Name:  "bg",
			Prof:  contention.MemProfile{CPICore: 1, APKI: 20, WSSMB: 64, MRMin: 0.8, MRMax: 0.8, Gamma: 1, MLP: 4},
			Cores: 4,
		}, true
	}
	w := wl(t, "M.milc")
	withBG, err := e.RunWithBubbles(w, make([]float64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("background func never called")
	}
	quiet, err := NewEnv(cluster.Default(), 42)
	if err != nil {
		t.Fatal(err)
	}
	quiet.Reps = 2
	quiet.UnitCores = 4
	noBG, err := quiet.RunWithBubbles(w, make([]float64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if withBG <= noBG {
		t.Errorf("background interference should slow the app: %v vs %v", withBG, noBG)
	}
}

// TestBackgroundStreamContract pins what a backgroundFunc is handed: the
// stream of the (host layout, repetition), identical for every host and at
// its start for every host — so direct draws model conditions all hosts
// share. The stream is rebuilt here from the layout's documented encoding.
// Identical requests see the identical stream, and so does another entry
// point that lays out the same hosts; a request that differs in one
// pressure or one co-runner node, and the next repetition, see another.
func TestBackgroundStreamContract(t *testing.T) {
	e := newTestEnv(t) // 2 repetitions, no cache
	e.UnitCores = 4
	type call struct {
		host int
		seed int64
		draw float64
	}
	var calls []call
	e.Background = func(host int, r *sim.RNG) (contention.Occupant, bool) {
		calls = append(calls, call{host, r.Seed(), r.Float64()})
		return contention.Occupant{}, false
	}
	w, co := wl(t, "M.milc"), wl(t, "C.libq")
	// streams measures one request and returns each repetition's stream
	// seed, checking that every host of a repetition saw it from its start.
	streams := func(name string, measure func() error) []int64 {
		t.Helper()
		calls = calls[:0]
		if err := measure(); err != nil {
			t.Fatal(err)
		}
		if len(calls) != 2*4 {
			t.Fatalf("%s: %d background calls, want 8 (2 repetitions x 4 hosts)", name, len(calls))
		}
		var seeds []int64
		for g := 0; g < len(calls); g += 4 {
			first := calls[g]
			for i, c := range calls[g : g+4] {
				if c.host != i || c.seed != first.seed || c.draw != first.draw {
					t.Errorf("%s, repetition %d: host call %+v, want host %d with the repetition's seed %d and first draw %v",
						name, g/4, c, i, first.seed, first.draw)
				}
			}
			seeds = append(seeds, first.seed)
		}
		if seeds[0] == seeds[1] {
			t.Errorf("%s: both repetitions see stream %d", name, seeds[0])
		}
		return seeds
	}
	bubbles := func(ps ...float64) func() error {
		return func() error { _, err := e.RunWithBubbles(w, ps); return err }
	}
	coRun := func(coNodes ...int) func() error {
		return func() error { _, err := coRunner(e, w, co, 4, coNodes); return err }
	}

	base := streams("bubbles", bubbles(2, 0, 0, 0))
	// The layout id of base, folded from scratch: per host its index, then
	// the measured unit (digest word, base-profile mark), then the bubble.
	id, fold := uint64(0), func(id, v uint64) uint64 { return mix64(id ^ v) }
	digest := sha256.Sum256([]byte(fmt.Sprintf("%+v", w)))
	for h := 0; h < 4; h++ {
		id = fold(fold(fold(id, uint64(h)), binary.LittleEndian.Uint64(digest[:])), ^uint64(0))
		if h == 0 {
			id = fold(id, math.Float64bits(2))
		}
	}
	for rep, got := range base {
		want := sim.NewRNG(e.Seed).Stream("background").StreamN("layout", int(id)).StreamN("rep", rep)
		if got != want.Seed() {
			t.Errorf("repetition %d saw stream %d, want %d: the (layout, rep) stream", rep, got, want.Seed())
		}
	}
	if again := streams("the same request again", bubbles(2, 0, 0, 0)); again[0] != base[0] || again[1] != base[1] {
		t.Errorf("an identical request saw streams %v, want %v", again, base)
	}
	if got := streams("one pressure changed", bubbles(3, 0, 0, 0)); got[0] == base[0] || got[1] == base[1] {
		t.Errorf("a request with one pressure changed saw streams %v, shared with %v", got, base)
	}
	quiet := streams("no bubble", bubbles(0, 0, 0, 0))
	if got := streams("no co-runner", coRun()); got[0] != quiet[0] || got[1] != quiet[1] {
		t.Errorf("a co-runner request with no co-runner saw streams %v, want the bare layout's %v", got, quiet)
	}
	one := streams("co-runner on node 1", coRun(1))
	if got := streams("co-runner on node 2", coRun(2)); got[0] == one[0] || got[1] == one[1] {
		t.Errorf("a request with its co-runner moved saw streams %v, shared with %v", got, one)
	}
	if one[0] == quiet[0] || one[1] == quiet[1] {
		t.Errorf("a request with a co-runner saw streams %v, shared with the bare layout's %v", one, quiet)
	}
}

func TestDeterminismAcrossEnvs(t *testing.T) {
	w := wl(t, "N.cg")
	ps, _ := HomogeneousPressures(8, 2, 4)
	run := func() float64 {
		e, err := NewEnv(cluster.Default(), 7)
		if err != nil {
			t.Fatal(err)
		}
		e.Reps = 2
		v, err := e.NormalizedWithBubbles(w, ps)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same-seed environments diverged: %v vs %v", a, b)
	}
}
