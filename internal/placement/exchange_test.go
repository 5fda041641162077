package placement

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// digestResult folds every observable field of a Result — objective
// bits, QoS verdict, evaluation count, placement layout, per-app
// prediction bits — into one FNV-64a word, so "bitwise identical" is a
// single comparison.
func digestResult(r Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "obj=%016x qos=%v evals=%d place=%s", math.Float64bits(r.Objective), r.QoSSatisfied, r.Evaluations, r.Placement.String())
	apps := make([]string, 0, len(r.Predicted))
	for a := range r.Predicted {
		apps = append(apps, a)
	}
	sort.Strings(apps)
	for _, a := range apps {
		fmt.Fprintf(h, " %s=%016x", a, math.Float64bits(r.Predicted[a]))
	}
	return h.Sum64()
}

// Golden digests of the hierarchical search over a
// goal × QoS × method × seed grid on the 8-host test request: any drift
// in draw discipline, evaluation order, or float accumulation flips a
// digest. Re-baselined once, when the batched two-stream exchange became
// the only exchange algorithm (the previous values pinned the deleted
// one-stream serial annealer). The evaluator count is not a key:
// TestExchangeWorkersDeterministic pins that it cannot matter.
type goldenKey struct {
	goal Goal
	qos  bool
	seed int64
}

var goldenExchange = map[goldenKey]uint64{
	{Best, false, 1}:  0xdc1ef4c22ab69a82,
	{Best, false, 2}:  0x87c2b77d8668276b,
	{Best, false, 3}:  0xad7c023462a287b2,
	{Best, true, 1}:   0xed2886bf97e180bf,
	{Best, true, 2}:   0xffba8c17859cc186,
	{Best, true, 3}:   0xad7c023462a287b2,
	{Worst, false, 1}: 0x75a31d2f1d4f94fd,
	{Worst, false, 2}: 0x3862cb6e27687836,
	{Worst, false, 3}: 0xf1f4a30ea089cf44,
}

func TestExchangeGoldens(t *testing.T) {
	req := testRequest()
	for key, want := range goldenExchange {
		var qos *QoS
		if key.qos {
			qos = &QoS{App: "sens", MaxNormalized: 1.7}
		}
		cfg := Config{Iterations: 150, Seed: key.seed, Goal: key.goal, QoS: qos, Restarts: 2, Cells: 3, ExchangeIters: 200}
		res, err := Search(req, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", key, err)
		}
		if got := digestResult(res); got != want {
			t.Errorf("%+v: digest 0x%016x, want golden 0x%016x", key, got, want)
		}
	}
}

// Golden digests (captured at the commit before the index-native engine,
// at ExchangeWorkers 2 — the batched exchange, so they survived its
// becoming the only one unchanged) of the hierarchical search with three
// restarts per cell and a QoS app whose demand is split across two cells
// — "sens" comes last in request order, so the spread leaves 2 of its
// units in cell 0 and 2 in cell 1, and both cells anneal under the
// constraint on their own sub-index.
var goldenSplitQoS = map[int64]uint64{
	1: 0x5ec72a8cb6a3dbb5,
	2: 0x5e852fc9b97b72b7,
	3: 0x63ffcd9263cc1123,
}

func TestSplitQoSRestartsGoldens(t *testing.T) {
	req := testRequest()
	req.Demands = []cluster.Demand{
		{App: "quiet", Units: 4},
		{App: "noisy1", Units: 4},
		{App: "noisy2", Units: 4},
		{App: "sens", Units: 4},
	}
	b, err := bind(req)
	if err != nil {
		t.Fatal(err)
	}
	asg, _, err := assignDemands(b, cluster.Partition(req.NumHosts, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	sens, _ := b.ix.IndexOf("sens")
	holding := 0
	for _, cell := range asg {
		for _, d := range cell {
			if d.id == sens {
				holding++
			}
		}
	}
	if holding != 2 {
		t.Fatalf("the QoS app's demand sits in %d cells, want it split across 2", holding)
	}
	for seed, want := range goldenSplitQoS {
		cfg := Config{Iterations: 150, Seed: seed, QoS: &QoS{App: "sens", MaxNormalized: 1.7},
			Restarts: 3, Cells: 3, ExchangeIters: 200}
		res, err := Search(req, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := digestResult(res); got != want {
			t.Errorf("seed %d: digest 0x%016x, want golden 0x%016x", seed, got, want)
		}
	}
}

// Golden digests of the search over generated fleets with down hosts —
// same vintage and purpose as goldenExchange, but exercising the spread
// phase, multi-cell merge, and the down-host skip in the exchange draw
// loop.
type fleetGoldenKey struct {
	fleetSeed int64
	cells     int
	round     int
}

var goldenFleet = map[fleetGoldenKey]uint64{
	{1, 2, 0}: 0x804c176216aa090e,
	{1, 2, 2}: 0xcbeb77741cfeea14,
	{1, 5, 0}: 0xd00e3f622748f288,
	{1, 5, 2}: 0x5eee6313ad0815ee,
	{2, 2, 0}: 0x6059f7741a6c50ba,
	{2, 2, 2}: 0x2f87a12e683f6def,
	{2, 5, 0}: 0xcca28303c718698f,
	{2, 5, 2}: 0x2b25f6201237c64a,
}

func propFleetSpec() fleet.Spec {
	return fleet.Spec{
		Name:         "prop",
		TotalHosts:   60,
		SlotsPerHost: 2,
		Templates: []fleet.Template{
			{Name: "core", Weight: 3},
			{Name: "burst", Weight: 1, DegradeFactor: 1.3, StartupRounds: 4},
		},
	}
}

func TestExchangeFleetGoldens(t *testing.T) {
	spec := propFleetSpec()
	for key, want := range goldenFleet {
		f, err := fleet.Generate(spec, key.fleetSeed)
		if err != nil {
			t.Fatal(err)
		}
		down := f.DownAt(key.round)
		req := fleetRequest(t, spec, down, key.fleetSeed*100+int64(key.cells), 12)
		cfg := Config{Iterations: 150, Seed: key.fleetSeed, Restarts: 1, Cells: key.cells, ExchangeIters: 300}
		res, err := Search(req, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", key, err)
		}
		if got := digestResult(res); got != want {
			t.Errorf("%+v: digest 0x%016x, want golden 0x%016x", key, got, want)
		}
	}
}

// TestExchangeWorkersDeterministic: the exchange is a pure function of
// (Request, Config.Seed) — same seed twice is byte-identical (run under
// -race this also shakes out data races in the evaluator fan-out), and
// the digest is identical for every evaluator count, the GOMAXPROCS
// default and a single inline evaluator included (the two-stream draw
// discipline makes the trajectory independent of how proposals are
// striped across evaluators).
func TestExchangeWorkersDeterministic(t *testing.T) {
	spec := propFleetSpec()
	for _, fleetSeed := range []int64{1, 2} {
		f, err := fleet.Generate(spec, fleetSeed)
		if err != nil {
			t.Fatal(err)
		}
		down := f.DownAt(2)
		req := fleetRequest(t, spec, down, fleetSeed*100, 12)
		var ref uint64
		for i, workers := range []int{0, 1, 2, 4, 8} {
			cfg := Config{Iterations: 150, Seed: fleetSeed, Restarts: 2, Cells: 5, ExchangeIters: 300, ExchangeWorkers: workers}
			a, err := Search(req, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Search(req, cfg)
			if err != nil {
				t.Fatal(err)
			}
			da, db := digestResult(a), digestResult(b)
			if da != db {
				t.Fatalf("seed=%d workers=%d: two same-seed runs differ: 0x%016x vs 0x%016x", fleetSeed, workers, da, db)
			}
			if i == 0 {
				ref = da
			} else if da != ref {
				t.Errorf("seed=%d workers=%d: digest 0x%016x differs from workers=0 digest 0x%016x", fleetSeed, workers, da, ref)
			}
		}
	}
}

// TestExchangeSpeculativeImproves: the batched annealer must do its job
// — on a fleet-sized request it accepts exchanges, resolves conflicts,
// and does not end worse than a one-proposal exchange (the cell phase's
// merged result, give or take a single swap).
func TestExchangeSpeculativeImproves(t *testing.T) {
	spec := propFleetSpec()
	f, err := fleet.Generate(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	req := fleetRequest(t, spec, f.DownAt(0), 300, 16)
	cellsOnly, err := Search(req, Config{Iterations: 150, Seed: 9, Restarts: 1, Cells: 5, ExchangeIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	full, err := Search(req, Config{Iterations: 150, Seed: 9, Restarts: 1, Cells: 5, ExchangeIters: 400, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if full.Objective > cellsOnly.Objective {
		t.Errorf("objective %.4f after 400 exchange proposals, worse than %.4f after one", full.Objective, cellsOnly.Objective)
	}
	if reg.Counter(MetricExchangeAccepted).Value() == 0 {
		t.Error("the exchange accepted no proposal")
	}
	if occ := reg.Gauge(MetricExchangeBatchOccupancy).Value(); occ <= 0 || occ > 1 {
		t.Errorf("batch occupancy %v outside (0, 1]", occ)
	}
	if err := full.Placement.Validate(); err != nil {
		t.Errorf("placement invalid: %v", err)
	}
}

func TestExchangeWorkersValidation(t *testing.T) {
	req := testRequest()
	if _, err := Search(req, Config{Iterations: 10, Seed: 1, ExchangeWorkers: -1, Cells: 3}); err == nil || !strings.Contains(err.Error(), "exchange workers") {
		t.Errorf("negative ExchangeWorkers: got err %v, want validation error", err)
	}
	for _, cells := range []int{0, 1} {
		if _, err := Search(req, Config{Iterations: 10, Seed: 1, ExchangeWorkers: 1, Cells: cells}); err == nil || !strings.Contains(err.Error(), "exchange workers") {
			t.Errorf("ExchangeWorkers with the flat search (Cells=%d): got err %v, want validation error", cells, err)
		}
	}
}

// postingsEqual compares two postings' segment layouts and positions.
// Postings keeps them unexported, so this reads them by reflection.
func postingsEqual(a, b *core.Postings) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for _, f := range []string{"off", "pos"} {
		x, y := va.FieldByName(f), vb.FieldByName(f)
		if x.Len() != y.Len() {
			return false
		}
		for i := 0; i < x.Len(); i++ {
			if x.Index(i).Int() != y.Index(i).Int() {
				return false
			}
		}
	}
	return true
}

// TestExchangeMirrorsReplayCommits: evaluators copy the fleet grid once
// per search and then replay each batch's commits. At every batch start
// — checked once the batch's speculation has been undone — every mirror
// must equal the authoritative grid and postings, and those postings a
// from-scratch build of the grid.
func TestExchangeMirrorsReplayCommits(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, cells := range []int{2, 5} {
			for _, workers := range []int{1, 3} {
				tag := fmt.Sprintf("seed=%d cells=%d workers=%d", seed, cells, workers)
				b, q := boundFleetRequest(t, seed, 2, seed == 2)
				cfg := searchCellsConfig(seed, cells, q)
				cfg.ExchangeWorkers = workers
				ws := acquireWorkspace()
				parts, _, err := searchCells(ws, b, &cfg, 1)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				batches := 0
				check := func(auth *incEval, evaluators []*workspace) {
					batches++
					if !postingsEqual(&auth.pst, core.NewPostings(&auth.grid, len(b.ix.Apps))) {
						t.Fatalf("%s batch %d: authoritative postings differ from a rebuild", tag, batches)
					}
					for i, wk := range evaluators {
						if !slices.Equal(wk.e.grid.Cells(), auth.grid.Cells()) {
							t.Fatalf("%s batch %d: evaluator %d grid differs from the authoritative one", tag, batches, i)
						}
						if !postingsEqual(&wk.e.pst, &auth.pst) {
							t.Fatalf("%s batch %d: evaluator %d postings differ from the authoritative ones", tag, batches, i)
						}
					}
				}
				ex, err := exchange(ws, b, &cfg, 1, parts, check)
				releaseWorkspace(ws)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if want := (cfg.ExchangeIters + exchangeBatch - 1) / exchangeBatch; batches != want {
					t.Fatalf("%s: checked %d batches, want %d", tag, batches, want)
				}
				if ex.accepted == 0 {
					t.Fatalf("%s: no exchange accepted, so no commit was replayed", tag)
				}
			}
		}
	}
}

// TestObjGroupMatchesObjective: one pass of objGroup yields, for each
// member, bit for bit the objective incEval.objective computes for the
// current predictions with that member's deltas and those of the members
// before it — and a group passes over skipped proposals and stops at the
// first proposal that shares an app or a host with a member.
func TestObjGroupMatchesObjective(t *testing.T) {
	r := sim.NewRNG(5).Stream("objgroup")
	for trial := 0; trial < 50; trial++ {
		n := 24 + r.Intn(300)
		e := &incEval{}
		for i := 0; i < n; i++ {
			e.pred = append(e.pred, 1+r.Float64())
			e.units = append(e.units, float64(1+r.Intn(6)))
			e.weight += e.units[i]
		}
		perm := r.Perm(n)
		props := make([]exProposal, 7)
		for k := range props {
			p := &props[k]
			p.kind, p.ha, p.hb = exEvaled, 2*k, 2*k+1
			for _, id := range perm[3*k : 3*k+1+r.Intn(3)] {
				p.aff = append(p.aff, int32(id))
				p.val = append(p.val, 1+r.Float64())
			}
		}
		// A proposal that shares an app with member 0 ends the group,
		// even when it could hold one more.
		stop := 4 + r.Intn(3)
		props[stop].aff = append(props[stop].aff, props[0].aff[0])
		props[stop].val = append(props[stop].val, 1)
		want := []int{0, 1, 3, 4, 5}[:min(objGroupSize, stop-1)]
		// Proposal 2 is passed over when skipped; as a no-op swap on
		// member 1's host it ends the group, since member 1's commit
		// would make it re-run.
		props[2].kind = exSkip
		if trial%2 == 1 {
			props[2].kind, props[2].ha = exSame, props[1].hb
			want = want[:2]
		}

		var g objGroup
		g.form(e, props, 0, func(*exProposal) bool { return true })
		if !slices.Equal(g.members[:g.m], want) {
			t.Fatalf("trial %d: members %v, want %v", trial, g.members[:g.m], want)
		}
		cand := slices.Clone(e.pred)
		for c, k := range want {
			for i, id := range props[k].aff {
				cand[id] = props[k].val[i]
			}
			if got, ref := g.sums[c], e.objective(cand); math.Float64bits(got) != math.Float64bits(ref) {
				t.Fatalf("trial %d member %d: grouped objective %v, sequential %v", trial, c, got, ref)
			}
		}
	}
}
