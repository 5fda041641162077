package placement

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestIncrementalMatchesFullEvaluate drives incEval through a long
// random swap sequence with a string cluster.Placement replayed beside
// it and checks, at every step, that the grid's co-location verdict
// matches Placement.Validate and that the incremental objective and
// energy agree bit-exactly with a from-scratch refEvaluate of the
// mirrored placement — for proposals, accepted states, and rejected
// (rolled back) states alike.
func TestIncrementalMatchesFullEvaluate(t *testing.T) {
	// Three slots under the pairwise rule make rule-breaking swaps
	// possible; with two slots per host every swap is valid.
	wide := testRequest()
	wide.NumHosts, wide.SlotsPerHost = 6, 3
	cases := []struct {
		req Request
		qos *QoS
	}{
		{testRequest(), nil},
		{testRequest(), &QoS{App: "sens", MaxNormalized: 1.5}},
		{wide, &QoS{App: "sens", MaxNormalized: 1.5}},
	}
	for _, tc := range cases {
		req, qos := tc.req, tc.qos
		b, err := bind(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.constrain(qos); err != nil {
			t.Fatal(err)
		}
		r := sim.NewRNG(17).Stream("prop")
		ws := acquireWorkspace()
		defer releaseWorkspace(ws)
		if err := b.sample(ws, r.Stream("init")); err != nil {
			t.Fatal(err)
		}
		e := &ws.e
		cur, err := cluster.PlacementFromCells(b.hosts, b.slots, b.appsLimit, e.grid.Cells(), b.ix.Apps)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.start(&b.problem, ws.stale); err != nil {
			t.Fatal(err)
		}
		check := func(step int, obj, energy float64) {
			t.Helper()
			wantObj, wantEnergy, wantPred, err := refEvaluate(cur, req, qos)
			if err != nil {
				t.Fatal(err)
			}
			if obj != wantObj || energy != wantEnergy {
				t.Fatalf("qos=%v step %d: incremental (obj=%x energy=%x), full (obj=%x energy=%x)",
					qos != nil, step, obj, energy, wantObj, wantEnergy)
			}
			for a, v := range wantPred {
				id, ok := e.ix.IndexOf(a)
				if !ok {
					t.Fatalf("qos=%v step %d: app %s not indexed", qos != nil, step, a)
				}
				if e.pred[id] != v {
					t.Fatalf("qos=%v step %d: pred[%s]=%x, want %x", qos != nil, step, a, e.pred[id], v)
				}
			}
		}
		check(-1, e.objective(e.pred), e.energy(e.objective(e.pred), e.pred))

		slots := req.NumHosts * req.SlotsPerHost
		evaluated, invalid := 0, 0
		for i := 0; i < 400; i++ {
			a, b := r.Intn(slots), r.Intn(slots)
			ha, sa := a/req.SlotsPerHost, a%req.SlotsPerHost
			hb, sb := b/req.SlotsPerHost, b%req.SlotsPerHost
			if same := cur.At(ha, sa) == cur.At(hb, sb); same != (e.grid.Cell(ha, sa) == e.grid.Cell(hb, sb)) {
				t.Fatalf("step %d: grid and placement disagree on same-content", i)
			} else if same {
				continue
			}
			swapSlots(cur, ha, sa, hb, sb)
			valid, err := e.propose(ha, sa, hb, sb)
			if err != nil {
				t.Fatal(err)
			}
			obj := e.objective(e.cand)
			energy := e.energy(obj, e.cand)
			// Every state the walk keeps is valid, so only the swap can
			// have broken the rule.
			if want := cur.Validate() == nil; valid != want {
				t.Fatalf("step %d: grid says valid=%v, Placement.Validate says %v", i, valid, want)
			}
			if !valid {
				invalid++
				swapSlots(cur, ha, sa, hb, sb)
				prev := e.objective(e.pred)
				check(i, prev, e.energy(prev, e.pred))
				continue
			}
			evaluated++
			if r.Float64() < 0.5 {
				e.accept()
				check(i, obj, energy)
			} else {
				e.reject()
				swapSlots(cur, ha, sa, hb, sb)
				prev := e.objective(e.pred)
				check(i, prev, e.energy(prev, e.pred))
			}
		}
		if evaluated == 0 || (req.SlotsPerHost > 2) != (invalid > 0) {
			t.Fatalf("%d slots per host: sequence exercised %d evaluations and %d invalid swaps", req.SlotsPerHost, evaluated, invalid)
		}
	}
}

// TestSamplerMatchesRandomValidDown: the search's cell-level sampler
// (bind + problem.sample, straight into grid cells, apps numbered in
// sorted order) and randomValid (the same cluster.SampleCells over apps
// numbered by first appearance, named back with PlacementFromCells) must
// produce the identical placement from the identical stream and leave
// the stream at the same draw — across down hosts, a relaxed limit, and
// AppsPerHostLimit 1, whose samples are mostly rejected and so exercise
// the retry path.
func TestSamplerMatchesRandomValidDown(t *testing.T) {
	cases := []struct {
		name               string
		hosts, slots, lim  int
		down               []int
		mustRetrySometimes bool
	}{
		{name: "pairwise", hosts: 8, slots: 2},
		{name: "down hosts", hosts: 12, slots: 2, down: []int{0, 5, 11}},
		{name: "wide pairwise", hosts: 8, slots: 3, mustRetrySometimes: true},
		{name: "relaxed limit", hosts: 6, slots: 3, lim: 3},
		{name: "one app per host", hosts: 16, slots: 2, lim: 1, down: []int{3}, mustRetrySometimes: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := testRequest()
			req.NumHosts, req.SlotsPerHost, req.AppsPerHostLimit, req.DownHosts = tc.hosts, tc.slots, tc.lim, tc.down
			if tc.lim == 1 {
				for i := range req.Demands {
					req.Demands[i].Units = 2 // whole hosts: 4 apps on >= 8 up hosts
				}
			}
			b, err := bind(req)
			if err != nil {
				t.Fatal(err)
			}
			ws := acquireWorkspace()
			defer releaseWorkspace(ws)
			retried := false
			for seed := int64(1); seed <= 40; seed++ {
				ra, rb := sim.NewRNG(seed).Stream("init"), sim.NewRNG(seed).Stream("init")
				want := randomValid(t, ra, req)
				if err := b.sample(ws, rb); err != nil {
					t.Fatal(err)
				}
				got, err := cluster.PlacementFromCells(b.hosts, b.slots, b.appsLimit, ws.e.grid.Cells(), b.ix.Apps)
				if err != nil {
					t.Fatal(err)
				}
				if got.String() != want.String() {
					t.Fatalf("seed %d: sampler placed\n%s\nrandomValid placed\n%s", seed, got, want)
				}
				if got.AppsPerHostLimit() != want.AppsPerHostLimit() {
					t.Fatalf("seed %d: limits differ", seed)
				}
				if x, y := ra.Float64(), rb.Float64(); x != y {
					t.Fatalf("seed %d: streams diverge after sampling", seed)
				}
				// A single-try sample from the same stream failing proves
				// the accepted sample above came from a retry.
				one := sim.NewRNG(seed).Stream("init")
				if cluster.SampleCells(one, ws.e.grid.Cells(), ws.perm, b.slots, b.limit, ws.units, b.down, 1) != nil {
					retried = true
				}
			}
			if retried != tc.mustRetrySometimes {
				t.Errorf("retry path exercised = %v, want %v", retried, tc.mustRetrySometimes)
			}
		})
	}
}

// TestSearchResultMatchesFullEvaluate: the returned best must carry the
// objective and predictions a from-scratch evaluation of its placement
// produces — the incremental bookkeeping may never drift.
func TestSearchResultMatchesFullEvaluate(t *testing.T) {
	req := testRequest()
	cfg := DefaultConfig(23)
	cfg.Iterations = 800
	cfg.Restarts = 3
	best, err := Search(req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	obj, _, pred, err := refEvaluate(best.Placement, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if best.Objective != obj {
		t.Errorf("result objective %x, full evaluate %x", best.Objective, obj)
	}
	for a, v := range pred {
		if best.Predicted[a] != v {
			t.Errorf("predicted[%s]=%x, want %x", a, best.Predicted[a], v)
		}
	}
}

// TestParallelRestartsDeterministic: the goroutine-per-restart search
// must be a pure function of the seed — identical Result and identical
// telemetry (counters and closing gauges) on every run. Run under -race
// this also exercises the merge for data races.
func TestParallelRestartsDeterministic(t *testing.T) {
	run := func() (Result, *telemetry.Registry) {
		req := testRequest()
		reg := telemetry.NewRegistry()
		cfg := DefaultConfig(99)
		cfg.Iterations = 600
		cfg.Restarts = 6
		cfg.Telemetry = reg
		best, err := Search(req, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return best, reg
	}
	a, ra := run()
	b, rb := run()
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		t.Errorf("objectives differ: %x vs %x", a.Objective, b.Objective)
	}
	if a.Placement.String() != b.Placement.String() {
		t.Error("placements differ between identical runs")
	}
	if a.Evaluations != b.Evaluations {
		t.Errorf("evaluations differ: %d vs %d", a.Evaluations, b.Evaluations)
	}
	sa, sb := ra.Snapshot(), rb.Snapshot()
	if len(sa.Counters) != len(sb.Counters) {
		t.Fatalf("counter sets differ: %d vs %d", len(sa.Counters), len(sb.Counters))
	}
	for name, v := range sa.Counters {
		if sb.Counters[name] != v {
			t.Errorf("counter %s: %d vs %d", name, v, sb.Counters[name])
		}
	}
	if len(sa.Gauges) != len(sb.Gauges) {
		t.Fatalf("gauge sets differ: %d vs %d", len(sa.Gauges), len(sb.Gauges))
	}
	for name, v := range sa.Gauges {
		if math.Float64bits(sb.Gauges[name]) != math.Float64bits(v) {
			t.Errorf("gauge %s: %x vs %x", name, v, sb.Gauges[name])
		}
	}
	if sa.Counters[MetricPredCacheHits] == 0 {
		t.Error("prediction cache recorded no hits over 3600 annealing steps")
	}
	// The combine memo's traffic used to reach no counter at all.
	if sa.Counters[metricPredCacheCombineHits] == 0 {
		t.Error("combine memo recorded no hits over 3600 annealing steps")
	}
	if sa.Counters[metricPredCacheCombineMisses] == 0 {
		t.Error("combine memo recorded no misses")
	}
}

// TestQoSWithWorstGoalRejected: regression for the silent sign
// inversion — a Worst-goal search with a QoS constraint used to reward
// violating the constraint instead of enforcing it.
func TestQoSWithWorstGoalRejected(t *testing.T) {
	req := testRequest()
	cfg := DefaultConfig(1)
	cfg.Goal = Worst
	cfg.QoS = &QoS{App: "sens", MaxNormalized: 2}
	_, err := Search(req, cfg)
	if err == nil {
		t.Fatal("QoS with Goal Worst should be rejected")
	}
	if !strings.Contains(err.Error(), "Goal Worst") {
		t.Errorf("error should explain the Goal Worst conflict, got: %v", err)
	}
}
