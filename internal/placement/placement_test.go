package placement

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// fakePred is a controllable predictor: normalized time grows linearly
// with the total co-located pressure.
type fakePred struct{ per float64 }

func (f fakePred) PredictPressures(ps []float64) (float64, error) {
	var sum float64
	for _, p := range ps {
		sum += p
	}
	return 1 + f.per*sum, nil
}

// testRequest builds a 4-app problem where the optimum clearly pairs the
// sensitive apps with the quiet ones: "sens" suffers 0.3 per pressure
// unit, the two "noisy" apps generate score 6 but barely react, and
// "quiet" neither generates nor reacts.
func testRequest() Request {
	return Request{
		NumHosts:     8,
		SlotsPerHost: 2,
		Demands: []cluster.Demand{
			{App: "sens", Units: 4},
			{App: "quiet", Units: 4},
			{App: "noisy1", Units: 4},
			{App: "noisy2", Units: 4},
		},
		Predictors: map[string]core.Predictor{
			"sens":   fakePred{per: 0.30},
			"quiet":  fakePred{per: 0.01},
			"noisy1": fakePred{per: 0.02},
			"noisy2": fakePred{per: 0.02},
		},
		Scores: map[string]float64{
			"sens": 0.5, "quiet": 0.5, "noisy1": 6, "noisy2": 6,
		},
	}
}

func TestRequestValidation(t *testing.T) {
	cases := []func(*Request){
		func(r *Request) { r.NumHosts = 0 },
		func(r *Request) { r.SlotsPerHost = 0 },
		func(r *Request) { r.Demands = nil },
		func(r *Request) { r.Demands = append(r.Demands, cluster.Demand{App: "sens", Units: 1}) },
		func(r *Request) { r.Demands[0].Units = 0 },
		func(r *Request) { r.Demands[0].App = "" },
		func(r *Request) { delete(r.Predictors, "sens") },
		func(r *Request) { delete(r.Scores, "sens") },
	}
	for i, mut := range cases {
		r := testRequest()
		mut(&r)
		if _, err := Search(r, DefaultConfig(1)); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestSearchFindsGoodPlacement(t *testing.T) {
	req := testRequest()
	cfg := DefaultConfig(7)
	cfg.Iterations = 1500
	best, err := Search(req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := best.Placement.Validate(); err != nil {
		t.Fatalf("best placement invalid: %v", err)
	}
	// The optimum pairs sens/quiet together and noisy1/noisy2 together:
	// sens then sees pressure 0.5 per node -> 1 + 0.3*4*0.5/... compute:
	// each of 4 nodes gets 0.5 => sum 2 => 1.6; but pairing sens with
	// itself is impossible (4 units on 4 hosts shared with quiet).
	// Objective at optimum: sens=1+0.3*(0.5*4)=1.6? No: sens spans 4
	// hosts each co-located with quiet (score 0.5): 1+0.3*2.0=1.6.
	// Pairing sens with a noisy app would give 1+0.3*24 = 8.2. The
	// search must avoid that.
	if best.Predicted["sens"] > 1.7 {
		t.Errorf("search left sens exposed: predicted %v", best.Predicted["sens"])
	}
	worstCfg := DefaultConfig(7)
	worstCfg.Iterations = 1500
	worstCfg.Goal = Worst
	worst, err := Search(req, worstCfg)
	if err != nil {
		t.Fatal(err)
	}
	if worst.Objective <= best.Objective {
		t.Errorf("worst objective %v should exceed best %v", worst.Objective, best.Objective)
	}
	// Random placements must fall between the two bounds on average.
	rnd, err := RandomOutcome(req, 5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, r := range rnd {
		mean += r.Objective
	}
	mean /= float64(len(rnd))
	if mean < best.Objective-1e-9 || mean > worst.Objective+1e-9 {
		t.Errorf("random mean %v outside [best %v, worst %v]", mean, best.Objective, worst.Objective)
	}
	if best.Evaluations <= 0 {
		t.Error("evaluations not counted")
	}
}

func TestSearchDeterministicPerSeed(t *testing.T) {
	req := testRequest()
	cfg := DefaultConfig(42)
	cfg.Iterations = 500
	cfg.Restarts = 1
	a, err := Search(req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective || a.Placement.String() != b.Placement.String() {
		t.Error("same seed should reproduce the same result")
	}
}

func TestQoSConstraintRespected(t *testing.T) {
	req := testRequest()
	cfg := DefaultConfig(5)
	cfg.Iterations = 1500
	cfg.QoS = &QoS{App: "sens", MaxNormalized: 1.7}
	res, err := Search(req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.QoSSatisfied {
		t.Fatalf("a satisfiable QoS constraint was not met; predicted %v", res.Predicted["sens"])
	}
	if res.Predicted["sens"] > 1.7 {
		t.Errorf("QoS-satisfied result predicts %v > bound", res.Predicted["sens"])
	}
}

func TestQoSValidation(t *testing.T) {
	req := testRequest()
	cfg := DefaultConfig(1)
	cfg.QoS = &QoS{App: "ghost", MaxNormalized: 1.5}
	if _, err := Search(req, cfg); err == nil {
		t.Error("QoS app outside demands should fail")
	}
	cfg.QoS = &QoS{App: "sens", MaxNormalized: 0.5}
	if _, err := Search(req, cfg); err == nil {
		t.Error("unsatisfiable QoS bound (<1) should fail")
	}
}

func TestObjectiveWeighting(t *testing.T) {
	p, err := cluster.NewPlacement(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	_ = p.Set(0, 0, "big")
	_ = p.Set(0, 1, "big")
	_ = p.Set(1, 0, "big")
	_ = p.Set(1, 1, "small")
	obj, err := Objective(p, map[string]float64{"big": 2, "small": 1})
	if err != nil {
		t.Fatal(err)
	}
	want := (2*3.0 + 1*1.0) / 4.0
	if obj != want {
		t.Errorf("objective = %v, want %v", obj, want)
	}
	if _, err := Objective(p, map[string]float64{"big": 2}); err == nil {
		t.Error("missing prediction should fail")
	}
	empty, _ := cluster.NewPlacement(1, 1)
	if _, err := Objective(empty, nil); err == nil {
		t.Error("empty placement should fail")
	}
}

func TestRandomOutcomeValidation(t *testing.T) {
	req := testRequest()
	if _, err := RandomOutcome(req, 0, 1, nil); err == nil {
		t.Error("zero samples should fail")
	}
	bad := testRequest()
	bad.Demands = nil
	if _, err := RandomOutcome(bad, 3, 1, nil); err == nil {
		t.Error("invalid request should fail")
	}
	out, err := RandomOutcome(req, 4, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("got %d outcomes", len(out))
	}
	for _, r := range out {
		if err := r.Placement.Validate(); err != nil {
			t.Errorf("random placement invalid: %v", err)
		}
		if r.Objective < 1 {
			t.Errorf("objective %v below 1", r.Objective)
		}
	}
}

func TestUnitConservationAfterSearch(t *testing.T) {
	req := testRequest()
	cfg := DefaultConfig(2)
	cfg.Iterations = 400
	res, err := Search(req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range req.Demands {
		if got := res.Placement.UnitsOf(d.App); got != d.Units {
			t.Errorf("%s has %d units after search, want %d", d.App, got, d.Units)
		}
	}
}

// Multi-way placements: with a relaxed apps-per-host limit the search may
// co-locate three applications, and the request must thread the limit
// through to validity checking.
func TestSearchWithRelaxedLimit(t *testing.T) {
	req := testRequest()
	req.SlotsPerHost = 4
	req.NumHosts = 4
	req.AppsPerHostLimit = 3
	cfg := DefaultConfig(9)
	cfg.Iterations = 600
	res, err := Search(req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Placement.Validate(); err != nil {
		t.Fatalf("result violates relaxed limit: %v", err)
	}
	if res.Placement.AppsPerHostLimit() != 3 {
		t.Errorf("limit = %d, want 3", res.Placement.AppsPerHostLimit())
	}
	bad := testRequest()
	bad.AppsPerHostLimit = -1
	if _, err := Search(bad, cfg); err == nil {
		t.Error("negative limit should fail validation")
	}
}
