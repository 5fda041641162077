package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hetero"
	"repro/internal/measure"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func testEnv(t *testing.T) *measure.Env {
	t.Helper()
	e, err := measure.NewEnv(cluster.Default(), 11)
	if err != nil {
		t.Fatal(err)
	}
	e.Reps = 2
	return e
}

func quickCfg() BuildConfig {
	cfg := DefaultBuildConfig()
	cfg.Samples = 25 // keep unit tests fast; experiments use the paper's 60
	return cfg
}

func buildFor(t *testing.T, env *measure.Env, name string) *Model {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildModel(env, w, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildModelBasics(t *testing.T) {
	env := testEnv(t)
	m := buildFor(t, env, "M.milc")
	if m.Workload != "M.milc" {
		t.Errorf("workload = %s", m.Workload)
	}
	if !m.Matrix.Complete() {
		t.Error("matrix incomplete")
	}
	if m.ProfilingCostPct <= 0 || m.ProfilingCostPct >= 100 {
		t.Errorf("binary-optimized cost = %v%%, want inside (0,100)", m.ProfilingCostPct)
	}
	if m.BubbleScore < 3 || m.BubbleScore > 5.5 {
		t.Errorf("M.milc bubble score = %v, want near Table 4's 4.3", m.BubbleScore)
	}
	if len(m.Selection.Stats) != 4 {
		t.Error("policy selection should evaluate 4 policies")
	}
}

func TestBSPAppPrefersMaxFamilyPolicy(t *testing.T) {
	env := testEnv(t)
	m := buildFor(t, env, "M.milc")
	if m.Policy == hetero.Interpolate {
		t.Errorf("BSP app best policy = %v; max-dominated apps should not pick INTERPOLATE", m.Policy)
	}
	if m.Selection.BestStats.AvgPct > 12 {
		t.Errorf("best policy error = %v%%, want modest (paper: <9%%)", m.Selection.BestStats.AvgPct)
	}
}

func TestWavefrontAppPrefersInterpolate(t *testing.T) {
	env := testEnv(t)
	m := buildFor(t, env, "M.Gems")
	if m.Policy != hetero.Interpolate {
		t.Errorf("M.Gems best policy = %v, want INTERPOLATE (proportional propagation)", m.Policy)
	}
}

func TestModelPredictsHeterogeneousConfigs(t *testing.T) {
	env := testEnv(t)
	w, _ := workloads.ByName("M.milc")
	m := buildFor(t, env, "M.milc")
	configs := [][]float64{
		{6, 0, 0, 0, 0, 0, 0, 0},
		{4, 4, 2, 0, 0, 0, 0, 0},
		{8, 6, 5, 3, 2, 1, 1, 1},
	}
	var errs []float64
	for _, cfg := range configs {
		pred, err := m.PredictPressures(cfg)
		if err != nil {
			t.Fatal(err)
		}
		actual, err := env.NormalizedWithBubbles(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, stats.RelErr(pred, actual))
	}
	if mean := stats.Mean(errs); mean > 0.12 {
		t.Errorf("mean prediction error = %v, want < 12%%", mean)
	}
}

func TestModelBeatsNaiveOnHighPropagationApp(t *testing.T) {
	env := testEnv(t)
	w, _ := workloads.ByName("M.milc")
	m := buildFor(t, env, "M.milc")
	nm, err := BuildNaiveModel(env, w, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Single heavy interfering node: the defining case where naive
	// proportional scaling fails (Fig. 2).
	cfg := []float64{7, 0, 0, 0, 0, 0, 0, 0}
	actual, err := env.NormalizedWithBubbles(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.PredictPressures(cfg)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := nm.PredictPressures(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RelErr(pred, actual) >= stats.RelErr(naive, actual) {
		t.Errorf("model error %v should beat naive %v (actual %v, pred %v, naive %v)",
			stats.RelErr(pred, actual), stats.RelErr(naive, actual), actual, pred, naive)
	}
	// The naive model must badly underestimate the jump.
	if naive >= actual-0.05 {
		t.Errorf("naive prediction %v should underestimate the actual %v", naive, actual)
	}
}

func TestNaiveModelEdges(t *testing.T) {
	env := testEnv(t)
	w, _ := workloads.ByName("M.zeus")
	nm, err := BuildNaiveModel(env, w, 8)
	if err != nil {
		t.Fatal(err)
	}
	v, err := nm.PredictPressures([]float64{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("no interference should predict 1, got %v", v)
	}
	full, err := nm.PredictPressures([]float64{5, 5, 5, 5, 5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	one, err := nm.PredictPressures([]float64{5, 0, 0, 0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Proportionality: the 8-node prediction is ~8x the single-node
	// increment (N+1 max turns one interfering node into... exactly one
	// here, since there are no lesser nodes).
	if math.Abs((full-1)-8*(one-1)) > 1e-9 {
		t.Errorf("naive proportionality violated: full=%v one=%v", full, one)
	}
	bad := &NaiveModel{}
	if _, err := bad.PredictPressures([]float64{1}); err == nil {
		t.Error("uninitialized naive model should fail")
	}
}

func TestBuildValidation(t *testing.T) {
	env := testEnv(t)
	w, _ := workloads.ByName("M.zeus")
	if _, err := BuildModel(nil, w, quickCfg()); err == nil {
		t.Error("nil env should fail")
	}
	cfg := quickCfg()
	cfg.Nodes = 0
	if _, err := BuildModel(env, w, cfg); err == nil {
		t.Error("zero nodes should fail")
	}
	cfg = quickCfg()
	cfg.Samples = 0
	if _, err := BuildModel(env, w, cfg); err == nil {
		t.Error("zero samples should fail")
	}
	cfg = quickCfg()
	cfg.Algorithm = Algorithm(99)
	if _, err := BuildModel(env, w, cfg); err == nil {
		t.Error("unknown algorithm should fail")
	}
	if _, err := BuildNaiveModel(nil, w, 8); err == nil {
		t.Error("nil env should fail for naive model")
	}
	if _, err := BuildNaiveModel(env, w, 0); err == nil {
		t.Error("zero nodes should fail for naive model")
	}
	empty := &Model{}
	if _, err := empty.PredictPressures([]float64{1}); err == nil {
		t.Error("model without matrix should fail")
	}
}

func TestAlgorithmString(t *testing.T) {
	want := map[Algorithm]string{
		BinaryOptimized: "binary-optimized",
		BinaryBrute:     "binary-brute",
		FullBrute:       "full-brute",
		Random30:        "random-30%",
		Random50:        "random-50%",
		Algorithm(9):    "Algorithm(9)",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("String(%d) = %q, want %q", int(a), a.String(), s)
		}
	}
}

func TestMeasureBubbleScoreMasterAveraging(t *testing.T) {
	env := testEnv(t)
	km, _ := workloads.ByName("H.KM")
	milc, _ := workloads.ByName("M.milc")
	kmScore, err := MeasureBubbleScore(env, km)
	if err != nil {
		t.Fatal(err)
	}
	milcScore, err := MeasureBubbleScore(env, milc)
	if err != nil {
		t.Fatal(err)
	}
	if kmScore >= milcScore {
		t.Errorf("H.KM score %v should be far below M.milc %v", kmScore, milcScore)
	}
	if kmScore < 0 || kmScore > 1.0 {
		t.Errorf("H.KM score = %v, want small", kmScore)
	}
}

func TestPressuresFor(t *testing.T) {
	p, err := cluster.NewPlacement(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A on hosts 0-2; B shares hosts 0 and 2; host 1 has A alone.
	for _, set := range [][3]any{
		{0, 0, "A"}, {0, 1, "B"},
		{1, 0, "A"},
		{2, 0, "A"}, {2, 1, "B"},
	} {
		if err := p.Set(set[0].(int), set[1].(int), set[2].(string)); err != nil {
			t.Fatal(err)
		}
	}
	scores := map[string]float64{"A": 2.5, "B": 4.0}
	got, err := PressuresFor(p, "A", scores)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 0, 4}
	if len(got) != len(want) {
		t.Fatalf("pressures = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pressures = %v, want %v", got, want)
		}
	}
	if _, err := PressuresFor(p, "missing", scores); err == nil {
		t.Error("unknown app should fail")
	}
	if _, err := PressuresFor(p, "A", map[string]float64{"A": 1}); err == nil {
		t.Error("missing co-runner score should fail")
	}
	if _, err := PressuresFor(nil, "A", scores); err == nil {
		t.Error("nil placement should fail")
	}
}

// TestPredictPlacement: the index engine predicts a whole placement of
// real models (a profiled model beside a naive one) as the name-keyed
// reference does.
func TestPredictPlacement(t *testing.T) {
	env := testEnv(t)
	mA := buildFor(t, env, "M.milc")
	nmB, err := BuildNaiveModel(env, mustWl(t, "C.libq"), 4)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := cluster.NewPlacement(4, 2)
	for h := 0; h < 4; h++ {
		_ = p.Set(h, 0, "M.milc")
		_ = p.Set(h, 1, "C.libq")
	}
	preds := map[string]Predictor{"M.milc": mA, "C.libq": nmB}
	scores := map[string]float64{"M.milc": mA.BubbleScore, "C.libq": nmB.BubbleScore}
	ix, err := NewAppsIndex(p.Apps(), preds, scores)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(p, ix)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(ix.Apps))
	if err := DeltaPredictPos(g, NewPostings(g, len(ix.Apps)), []int32{0, 1}, ix, NewPredictionCache(), out); err != nil {
		t.Fatal(err)
	}
	milc, _ := ix.IndexOf("M.milc")
	libq, _ := ix.IndexOf("C.libq")
	if out[milc] <= 1.2 {
		t.Errorf("milc sharing every host with libq should be predicted slow, got %v", out[milc])
	}
	if out[libq] < 1 {
		t.Errorf("negative interference predicted: %v", out[libq])
	}
	want, err := refPredictPlacement(p, preds, scores)
	if err != nil {
		t.Fatal(err)
	}
	if out[milc] != want["M.milc"] || out[libq] != want["C.libq"] {
		t.Errorf("index engine %v, name-keyed reference %v", out, want)
	}
	if _, err := NewAppsIndex(p.Apps(), map[string]Predictor{}, scores); err == nil {
		t.Error("missing predictor should fail")
	}
}

func mustWl(t *testing.T, name string) workloads.Workload {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
