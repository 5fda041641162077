package placement

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"

	"repro/internal/cluster"
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
	p, err := cluster.RandomValid(sim.NewRNG(3), req.NumHosts, req.SlotsPerHost, req.Demands, 0)
	if err != nil {
		t.Fatal(err)
	}
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
	p, err := cluster.RandomValid(sim.NewRNG(3), req.NumHosts, req.SlotsPerHost, req.Demands, 0)
	if err != nil {
		t.Fatal(err)
	}
	broken := req
	broken.Predictors = map[string]core.Predictor{}
	if _, err := Evaluate(p, broken, nil); err == nil {
		t.Error("missing predictors accepted")
	}
}
