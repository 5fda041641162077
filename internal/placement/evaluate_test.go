package placement

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// grid materializes a placement as its host-by-slot app matrix.
func grid(p *cluster.Placement) [][]string {
	out := make([][]string, p.NumHosts)
	for h := 0; h < p.NumHosts; h++ {
		row := make([]string, p.HostSlots)
		for s := 0; s < p.HostSlots; s++ {
			row[s] = p.At(h, s)
		}
		out[h] = row
	}
	return out
}

// TestEvaluateMatchesSearchResult: evaluating the placement a search
// returned must reproduce the search's own objective, predictions, and
// QoS verdict — the contract the what-if endpoint relies on.
func TestEvaluateMatchesSearchResult(t *testing.T) {
	req := testRequest()
	cfg := DefaultConfig(11)
	cfg.Iterations = 300
	cfg.Restarts = 2
	best, err := Search(req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(best.Placement, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Objective != best.Objective {
		t.Errorf("Evaluate objective %x, Search %x", ev.Objective, best.Objective)
	}
	if !reflect.DeepEqual(ev.Predicted, best.Predicted) {
		t.Errorf("Evaluate predictions %v, Search %v", ev.Predicted, best.Predicted)
	}
	if ev.Evaluations != 1 {
		t.Errorf("Evaluations = %d, want 1", ev.Evaluations)
	}
	if !ev.QoSSatisfied {
		t.Error("unconstrained evaluation not QoS-satisfied")
	}
}

// TestEvaluateQoSVerdict: the QoS verdict must flip with the bound.
func TestEvaluateQoSVerdict(t *testing.T) {
	req := testRequest()
	p := randomValid(t, sim.NewRNG(3), req)
	loose, err := Evaluate(p, req, &QoS{App: "sens", MaxNormalized: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !loose.QoSSatisfied {
		t.Errorf("bound 100 not satisfied (predicted %v)", loose.Predicted["sens"])
	}
	tight, err := Evaluate(p, req, &QoS{App: "sens", MaxNormalized: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tight.Predicted["sens"]; got > 1 && tight.QoSSatisfied {
		t.Errorf("bound 1 satisfied with predicted %v", got)
	}
	if loose.Objective != tight.Objective {
		t.Error("QoS bound changed the objective of a fixed placement")
	}
}

// TestEvaluateErrors: nil placements and missing model entries fail.
func TestEvaluateErrors(t *testing.T) {
	req := testRequest()
	if _, err := Evaluate(nil, req, nil); err == nil {
		t.Error("nil placement accepted")
	}
	p := randomValid(t, sim.NewRNG(3), req)
	broken := req
	broken.Predictors = map[string]core.Predictor{}
	if _, err := Evaluate(p, broken, nil); err == nil {
		t.Error("missing predictors accepted")
	}
}

// TestEvaluateQoSValidation: a constraint on an app the placement does
// not hold, or with a bound below 1, is rejected with Search's error for
// the same constraint rather than scored as met.
func TestEvaluateQoSValidation(t *testing.T) {
	req := testRequest()
	p := randomValid(t, sim.NewRNG(3), req)
	for _, qos := range []*QoS{{App: "ghost", MaxNormalized: 1.5}, {App: "sens", MaxNormalized: 0.5}} {
		_, err := Evaluate(p, req, qos)
		cfg := DefaultConfig(1)
		cfg.QoS = qos
		_, want := Search(req, cfg)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("QoS %+v: Evaluate error %v, Search error %v", *qos, err, want)
		}
	}
	// The constrained app must be in the placement itself, not merely
	// known to the request's models.
	partial, err := cluster.NewPlacement(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	_ = partial.Set(0, 0, "quiet")
	_ = partial.Set(1, 0, "noisy1")
	if _, err := Evaluate(partial, req, &QoS{App: "sens", MaxNormalized: 1.5}); err == nil {
		t.Error("QoS on an app outside the placement accepted")
	}
}

// FuzzEvaluateMatchesReference: Evaluate scores a random placement — 1
// to 4 slots per host, an apps-per-host limit from 0 (pairwise) up to
// the slot count, with or without a QoS constraint — to the bits of the
// name-keyed refEvaluate: the same objective, the same prediction for
// every app and the same QoS verdict. The RandomOutcome samples the
// placements come from carry the same bits too, each scored as drawn.
func FuzzEvaluateMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0), false)
	f.Add(int64(2), uint8(1), uint8(0), true)
	f.Add(int64(3), uint8(0), uint8(1), true)
	f.Add(int64(4), uint8(2), uint8(3), true)
	f.Add(int64(5), uint8(3), uint8(4), false)
	f.Add(int64(6), uint8(3), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, slotsRaw, limitRaw uint8, withQoS bool) {
		slots := 1 + int(slotsRaw%4)
		r := sim.NewRNG(seed).Stream("evaluate-fuzz")
		req := Request{
			SlotsPerHost:     slots,
			AppsPerHostLimit: int(limitRaw) % (slots + 1),
			Predictors:       map[string]core.Predictor{},
			Scores:           map[string]float64{},
		}
		names := []string{"alpha", "beta", "gamma", "delta"}[:2+r.Intn(3)]
		total := 0
		for _, n := range names {
			u := 1 + r.Intn(3)
			total += u
			req.Demands = append(req.Demands, cluster.Demand{App: n, Units: u})
			req.Predictors[n] = fakePred{per: r.Uniform(0.01, 0.4)}
			req.Scores[n] = r.Uniform(0.3, 7)
		}
		req.NumHosts = max(4+r.Intn(5), (total+slots-1)/slots)
		var qos *QoS
		if withQoS {
			qos = &QoS{App: names[r.Intn(len(names))], MaxNormalized: r.Uniform(1, 2.5)}
		}
		outs, err := RandomOutcome(req, 3, seed)
		if err != nil {
			t.Skipf("no valid placement sampled: %v", err)
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		draws := sim.NewRNG(seed).Stream("random-placements")
		for i, o := range outs {
			if want := randomValid(t, draws.StreamN("p", i), req); o.Placement.String() != want.String() {
				t.Fatalf("sample %d placed\n%s\nits draw is\n%s", i, o.Placement, want)
			}
			obj, _, pred, err := refEvaluate(o.Placement, req, qos)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := Evaluate(o.Placement, req, qos)
			if err != nil {
				t.Fatalf("sample %d: %v", i, err)
			}
			if !same(ev.Objective, obj) || !same(o.Objective, obj) {
				t.Fatalf("sample %d: objective Evaluate %x, RandomOutcome %x, reference %x", i, ev.Objective, o.Objective, obj)
			}
			if len(ev.Predicted) != len(pred) || len(o.Predicted) != len(pred) {
				t.Fatalf("sample %d: %d and %d predictions, reference %d", i, len(ev.Predicted), len(o.Predicted), len(pred))
			}
			for a, v := range pred {
				if !same(ev.Predicted[a], v) || !same(o.Predicted[a], v) {
					t.Fatalf("sample %d app %s: Evaluate %x, RandomOutcome %x, reference %x", i, a, ev.Predicted[a], o.Predicted[a], v)
				}
			}
			if want := qos == nil || pred[qos.App] <= qos.MaxNormalized; ev.QoSSatisfied != want {
				t.Fatalf("sample %d: QoS verdict %v, reference %v", i, ev.QoSSatisfied, want)
			}
		}
	})
}
