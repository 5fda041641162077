package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 = 32/7.
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEq(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got := StdDev(xs); !almostEq(got, math.Sqrt(want), 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, math.Sqrt(want))
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	if _, err := Min(nil); err == nil {
		t.Error("Min(nil) should error")
	}
	if _, err := Max(nil); err == nil {
		t.Error("Max(nil) should error")
	}
	xs := []float64{3, -1, 7, 2}
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	if mn != -1 || mx != 7 {
		t.Errorf("Min/Max = %v/%v, want -1/7", mn, mx)
	}
}

func TestSummarize(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("Summarize(nil) err = %v, want ErrEmpty", err)
	}
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if !almostEq(s.P25, 2, 1e-12) || !almostEq(s.P75, 4, 1e-12) {
		t.Errorf("quartiles = %v/%v, want 2/4", s.P25, s.P75)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct {
		q    float64
		want float64
	}{
		{-0.5, 10}, {0, 10}, {1, 40}, {1.5, 40},
		{0.5, 25}, {1.0 / 3.0, 20},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); !almostEq(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %v, want 0", got)
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("Quantile singleton = %v, want 7", got)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100); !almostEq(got, 0.10, 1e-12) {
		t.Errorf("RelErr = %v, want 0.10", got)
	}
	if got := RelErr(90, 100); !almostEq(got, 0.10, 1e-12) {
		t.Errorf("RelErr = %v, want 0.10", got)
	}
	if got := RelErr(0, 0); got != 0 {
		t.Errorf("RelErr(0,0) = %v, want 0", got)
	}
	if got := RelErr(1, 0); !math.IsInf(got, 1) {
		t.Errorf("RelErr(1,0) = %v, want +Inf", got)
	}
	if got := RelErrPct(105, 100); !almostEq(got, 5, 1e-9) {
		t.Errorf("RelErrPct = %v, want 5", got)
	}
}

func TestInterpAt(t *testing.T) {
	xs := []float64{0, 1, 3}
	ys := []float64{1, 2, 6}
	cases := []struct {
		x, want float64
	}{
		{-1, 1}, {0, 1}, {0.5, 1.5}, {1, 2}, {2, 4}, {3, 6}, {9, 6},
	}
	for _, c := range cases {
		got, err := InterpAt(xs, ys, c.x)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, c.want, 1e-12) {
			t.Errorf("InterpAt(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if _, err := InterpAt(xs, ys[:2], 1); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := InterpAt(nil, nil, 1); err != ErrEmpty {
		t.Error("empty input should yield ErrEmpty")
	}
}

func TestFillLinear(t *testing.T) {
	nan := math.NaN()
	ys := []float64{nan, 1, nan, nan, 4, nan}
	n, err := FillLinear(ys)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("filled = %d, want 4", n)
	}
	want := []float64{1, 1, 2, 3, 4, 4}
	for i := range want {
		if !almostEq(ys[i], want[i], 1e-12) {
			t.Errorf("ys[%d] = %v, want %v", i, ys[i], want[i])
		}
	}
	all := []float64{nan, nan}
	if _, err := FillLinear(all); err == nil {
		t.Error("all-NaN input should error")
	}
}

func TestFillLinearNoOp(t *testing.T) {
	ys := []float64{1, 2, 3}
	n, err := FillLinear(ys)
	if err != nil || n != 0 {
		t.Errorf("FillLinear complete input: n=%d err=%v", n, err)
	}
}

func TestMarginOfError99(t *testing.T) {
	// The paper: 60 samples of a 12,870-config population with per-app
	// standard deviations of a few percent give a margin around +/-1.7.
	// With sd = 5.0 (percent-scale) the margin should be near
	// 2.576*5/sqrt(60)*fpc ~ 1.66.
	got := MarginOfError99(5.0, 60, 12870)
	if got < 1.5 || got > 1.8 {
		t.Errorf("MarginOfError99(5,60,12870) = %v, want ~1.66", got)
	}
	// Infinite population should be slightly larger (no fpc).
	inf := MarginOfError99(5.0, 60, 0)
	if inf <= got {
		t.Errorf("infinite-population margin %v should exceed finite %v", inf, got)
	}
	if !math.IsInf(MarginOfError99(5, 0, 0), 1) {
		t.Error("n=0 should give +Inf")
	}
}

func TestWeightedMean(t *testing.T) {
	got, err := WeightedMean([]float64{1, 3}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 2.5, 1e-12) {
		t.Errorf("WeightedMean = %v, want 2.5", got)
	}
	if _, err := WeightedMean([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := WeightedMean([]float64{1}, []float64{0}); err == nil {
		t.Error("zero total weight should error")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

// Property: the mean lies between min and max.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		m := Mean(xs)
		return m >= mn-1e-6 && m <= mx+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: InterpAt is exact at the knots and monotone inputs produce
// values bounded by neighbouring knots.
func TestInterpKnotProperty(t *testing.T) {
	f := func(seed uint8, vals []float64) bool {
		n := int(seed%6) + 2
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = float64(i)
			v := 0.0
			if i < len(vals) {
				v = vals[i]
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			ys[i] = math.Mod(v, 100)
		}
		for i := 0; i < n; i++ {
			got, err := InterpAt(xs, ys, xs[i])
			if err != nil || !almostEq(got, ys[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FillLinear preserves already-defined values.
func TestFillLinearPreservesDefined(t *testing.T) {
	f := func(mask uint16, vals [8]float64) bool {
		ys := make([]float64, 8)
		orig := make([]float64, 8)
		anyDefined := false
		for i := range ys {
			v := vals[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			if mask&(1<<uint(i)) != 0 {
				ys[i] = v
				anyDefined = true
			} else {
				ys[i] = math.NaN()
			}
			orig[i] = ys[i]
		}
		_, err := FillLinear(ys)
		if !anyDefined {
			return err != nil
		}
		if err != nil {
			return false
		}
		for i := range ys {
			if math.IsNaN(ys[i]) {
				return false
			}
			if !math.IsNaN(orig[i]) && ys[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
