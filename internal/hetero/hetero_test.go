package hetero

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/profile"
	"repro/internal/sim"
)

func TestConvertPaperExamples(t *testing.T) {
	// The four rows of the paper's Figure 5 (4-node workloads).
	cases := []struct {
		policy    Policy
		in        []float64
		wantP     float64
		wantCount float64
	}{
		{NPlus1Max, []float64{3, 2, 1, 1}, 3, 2},   // A: [3,3,0,0]
		{AllMax, []float64{5, 2, 2, 1}, 5, 4},      // B: [5,5,5,5]
		{Interpolate, []float64{3, 5, 3, 1}, 3, 4}, // C: [3,3,3,3]
		{NMax, []float64{5, 5, 3, 2}, 5, 2},        // D: [5,5,0,0]
	}
	for _, c := range cases {
		p, cnt, err := c.policy.Convert(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-c.wantP) > 1e-9 || math.Abs(cnt-c.wantCount) > 1e-9 {
			t.Errorf("%v.Convert(%v) = (%v,%v), want (%v,%v)",
				c.policy, c.in, p, cnt, c.wantP, c.wantCount)
		}
	}
}

func TestConvertEdgeCases(t *testing.T) {
	// No interference anywhere.
	for _, p := range AllPolicies() {
		pr, cnt, err := p.Convert([]float64{0, 0, 0})
		if err != nil || pr != 0 || cnt != 0 {
			t.Errorf("%v zero vector = (%v,%v,%v)", p, pr, cnt, err)
		}
	}
	// N+1 max with nothing beyond the max nodes adds no phantom node.
	_, cnt, err := NPlus1Max.Convert([]float64{4, 4, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 2 {
		t.Errorf("N+1 max with only max-pressure nodes = %v, want 2", cnt)
	}
	// All nodes interfering at the max: N+1 == N == count.
	_, cnt, _ = NPlus1Max.Convert([]float64{3, 3, 3})
	if cnt != 3 {
		t.Errorf("count = %v, want 3", cnt)
	}
	// Interpolate averages over all nodes including quiet ones.
	pr, cnt, _ := Interpolate.Convert([]float64{8, 0, 0, 0})
	if pr != 2 || cnt != 4 {
		t.Errorf("interpolate = (%v,%v), want (2,4)", pr, cnt)
	}
	// Errors.
	if _, _, err := NMax.Convert(nil); err == nil {
		t.Error("empty vector should fail")
	}
	if _, _, err := NMax.Convert([]float64{-1}); err == nil {
		t.Error("negative pressure should fail")
	}
	if _, _, err := NMax.Convert([]float64{math.NaN()}); err == nil {
		t.Error("NaN pressure should fail")
	}
	if _, _, err := Policy(99).Convert([]float64{1}); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestPolicyString(t *testing.T) {
	want := map[Policy]string{
		NMax: "N MAX", NPlus1Max: "N+1 MAX", AllMax: "ALL MAX",
		Interpolate: "INTERPOLATE", Policy(9): "Policy(9)",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("String(%d) = %q, want %q", int(p), p.String(), s)
		}
	}
	if len(AllPolicies()) != 4 {
		t.Error("AllPolicies should list 4 policies")
	}
}

func TestTotalConfigs(t *testing.T) {
	// The paper: 8 hosts, pressures 0..8 -> 12,870 settings.
	if got := TotalConfigs(8, 8); got != 12870 {
		t.Errorf("TotalConfigs(8,8) = %d, want 12870", got)
	}
	if got := TotalConfigs(2, 1); got != 3 {
		t.Errorf("TotalConfigs(2,1) = %d, want 3 (00,01,11 as multisets)", got)
	}
}

func TestSampleConfig(t *testing.T) {
	rng := sim.NewRNG(1)
	for i := 0; i < 200; i++ {
		cfg := SampleConfig(rng, 8, 8)
		if len(cfg) != 8 {
			t.Fatalf("config length %d", len(cfg))
		}
		any := false
		for _, v := range cfg {
			if v < 0 || v > 8 || v != math.Trunc(v) {
				t.Fatalf("pressure %v out of range or non-integer", v)
			}
			if v > 0 {
				any = true
			}
		}
		if !any {
			t.Fatal("sample must have at least one interfering node")
		}
	}
}

// serially adapts a one-configuration truth function to a BatchMeasurer.
func serially(m func([]float64) (float64, error)) BatchMeasurer {
	return func(configs [][]float64) ([]float64, error) {
		out := make([]float64, len(configs))
		for i, cfg := range configs {
			v, err := m(cfg)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
}

// matrixFromTruth builds a complete propagation matrix from an analytic
// homogeneous truth function.
func matrixFromTruth(t *testing.T, truth func(p, k float64) float64) *profile.Matrix {
	t.Helper()
	res, err := profile.FullBruteBatch(func(settings []profile.Setting) ([]float64, error) {
		out := make([]float64, len(settings))
		for i, s := range settings {
			out[i] = truth(s.Pressure, float64(s.Interfering))
		}
		return out, nil
	}, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return res.Matrix
}

func TestSelectPicksMaxPolicyForMaxDrivenApp(t *testing.T) {
	// Ground truth where only the worst pressure matters and one extra
	// node's worth of secondary effect exists -> N+1 max-like behaviour.
	homTruth := func(p, k float64) float64 {
		if k <= 0 || p <= 0 {
			return 1
		}
		return 1 + 0.2*p*(1+0.02*k)
	}
	hetTruth := func(cfg []float64) (float64, error) {
		maxP, second := 0.0, 0.0
		for _, v := range cfg {
			if v > maxP {
				second = maxP
				maxP = v
			} else if v > second {
				second = v
			}
		}
		// Behaviour dominated by the worst node with a small secondary
		// contribution.
		return 1 + 0.2*maxP*(1+0.02) + 0.004*second, nil
	}
	mat := matrixFromTruth(t, homTruth)
	sel, err := SelectBatch(mat, serially(hetTruth), 8, 8, 60, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best != NMax && sel.Best != NPlus1Max {
		t.Errorf("max-driven app best policy = %v, want N MAX or N+1 MAX", sel.Best)
	}
	if sel.Stats[Interpolate].AvgPct <= sel.BestStats.AvgPct {
		t.Error("interpolate should lose on a max-driven app")
	}
}

func TestSelectPicksInterpolateForMeanDrivenApp(t *testing.T) {
	homTruth := func(p, k float64) float64 {
		if k <= 0 || p <= 0 {
			return 1
		}
		return 1 + 0.05*p*k // additive in interfering nodes and pressure
	}
	hetTruth := func(cfg []float64) (float64, error) {
		var sum float64
		for _, v := range cfg {
			sum += v
		}
		return 1 + 0.05*sum, nil
	}
	mat := matrixFromTruth(t, homTruth)
	sel, err := SelectBatch(mat, serially(hetTruth), 8, 8, 60, sim.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best != Interpolate {
		t.Errorf("mean-driven app best policy = %v, want INTERPOLATE", sel.Best)
	}
	if sel.BestStats.AvgPct > 2 {
		t.Errorf("interpolate should be near-exact here, got %v%%", sel.BestStats.AvgPct)
	}
}

func TestSelectStatsShape(t *testing.T) {
	mat := matrixFromTruth(t, func(p, k float64) float64 { return 1 + 0.01*p*k })
	sel, err := SelectBatch(mat, serially(func(cfg []float64) (float64, error) { return 1.1, nil }), 8, 8, 30, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Samples != 30 || sel.Total != 12870 {
		t.Errorf("samples/total = %d/%d", sel.Samples, sel.Total)
	}
	if len(sel.Stats) != 4 {
		t.Errorf("stats for %d policies, want 4", len(sel.Stats))
	}
	for p, st := range sel.Stats {
		if st.MinPct > st.AvgPct || st.AvgPct > st.MaxPct {
			t.Errorf("%v: min/avg/max ordering violated: %+v", p, st)
		}
		if st.StdPct < 0 {
			t.Errorf("%v: negative std", p)
		}
	}
	if sel.Margin99 < 0 {
		t.Error("negative margin of error")
	}
}

func TestSelectValidation(t *testing.T) {
	mat := matrixFromTruth(t, func(p, k float64) float64 { return 1 })
	meas := func(cfg []float64) (float64, error) { return 1, nil }
	rng := sim.NewRNG(1)
	if _, err := SelectBatch(nil, serially(meas), 8, 8, 10, rng); err == nil {
		t.Error("nil matrix should fail")
	}
	if _, err := SelectBatch(mat, nil, 8, 8, 10, rng); err == nil {
		t.Error("nil measurer should fail")
	}
	if _, err := SelectBatch(mat, serially(meas), 8, 8, 10, nil); err == nil {
		t.Error("nil rng should fail")
	}
	if _, err := SelectBatch(mat, serially(meas), 0, 8, 10, rng); err == nil {
		t.Error("zero nodes should fail")
	}
	if _, err := SelectBatch(mat, serially(meas), 8, 8, 0, rng); err == nil {
		t.Error("zero samples should fail")
	}
	bad := func(cfg []float64) (float64, error) { return 0, nil }
	if _, err := SelectBatch(mat, serially(bad), 8, 8, 5, rng); err == nil {
		t.Error("non-positive measurement should fail")
	}
}

// Property: for any valid pressure vector, every policy returns a max
// pressure bounded by the vector's own max, and counts within [0, n].
func TestConvertBoundsProperty(t *testing.T) {
	f := func(raw [8]uint8) bool {
		cfg := make([]float64, 8)
		var maxP float64
		for i, r := range raw {
			cfg[i] = float64(r % 9)
			if cfg[i] > maxP {
				maxP = cfg[i]
			}
		}
		for _, p := range AllPolicies() {
			pr, cnt, err := p.Convert(cfg)
			if err != nil {
				return false
			}
			if pr < 0 || pr > maxP+1e-9 {
				return false
			}
			if cnt < 0 || cnt > 8 {
				return false
			}
			// AllMax and Interpolate always use every node when any
			// interference exists.
			if maxP > 0 && (p == AllMax || p == Interpolate) && cnt != 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
