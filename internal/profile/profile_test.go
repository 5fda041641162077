package profile

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// syntheticMeasurer builds a Measurer from an analytic ground truth with
// the paper's curve shapes: a jump at the first interfering node that
// saturates, scaled by pressure.
func syntheticMeasurer(calls *int) Measurer {
	return func(pressure float64, interfering int) (float64, error) {
		if calls != nil {
			*calls++
		}
		return truth(pressure, float64(interfering)), nil
	}
}

func truth(pressure, nodes float64) float64 {
	if nodes <= 0 || pressure <= 0 {
		return 1
	}
	peak := 1 + 0.25*pressure // value at full interference
	shape := math.Pow(nodes/8.0, 0.3)
	return 1 + (peak-1)*shape
}

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix(0, 8); err == nil {
		t.Error("zero pressures should fail")
	}
	if _, err := NewMatrix(8, 0); err == nil {
		t.Error("zero nodes should fail")
	}
	m, err := NewMatrix(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if m.Cell(i, 0) != 1 {
			t.Errorf("column 0 must be 1, got %v", m.Cell(i, 0))
		}
		if !math.IsNaN(m.Cell(i, 3)) {
			t.Error("unset cells must be NaN")
		}
	}
	if m.Complete() {
		t.Error("fresh matrix should be incomplete")
	}
}

func TestMatrixSetValidation(t *testing.T) {
	m, _ := NewMatrix(2, 2)
	if err := m.Set(2, 0, 1); err == nil {
		t.Error("row out of range should fail")
	}
	if err := m.Set(0, 3, 1); err == nil {
		t.Error("column out of range should fail")
	}
	if err := m.Set(0, 1, math.NaN()); err == nil {
		t.Error("NaN value should fail")
	}
	if err := m.Set(0, 1, -1); err == nil {
		t.Error("negative value should fail")
	}
	if err := m.Set(0, 1, 1.5); err != nil {
		t.Errorf("valid set failed: %v", err)
	}
}

func fullMatrix(t *testing.T) *Matrix {
	t.Helper()
	res, err := FullBruteBatch(SerialBatch(syntheticMeasurer(nil)), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return res.Matrix
}

func TestFullBruteMeasuresEverything(t *testing.T) {
	calls := 0
	res, err := FullBruteBatch(SerialBatch(syntheticMeasurer(&calls)), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 64 || res.Measured != 64 || res.Total != 64 {
		t.Errorf("calls=%d measured=%d total=%d, want 64 each", calls, res.Measured, res.Total)
	}
	if !res.Matrix.Complete() {
		t.Error("full brute should complete the matrix")
	}
	if res.CostPct() != 100 {
		t.Errorf("cost = %v, want 100", res.CostPct())
	}
}

func TestMatrixAtInterpolation(t *testing.T) {
	m := fullMatrix(t)
	// Exact grid points.
	for _, p := range []float64{1, 4, 8} {
		for _, j := range []float64{0, 1, 8} {
			got, err := m.At(p, j)
			if err != nil {
				t.Fatal(err)
			}
			want := truth(p, j)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("At(%v,%v) = %v, want %v", p, j, got, want)
			}
		}
	}
	// Fractional pressure interpolates between rows.
	lo, _ := m.At(3, 4)
	hi, _ := m.At(4, 4)
	mid, err := m.At(3.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mid < math.Min(lo, hi) || mid > math.Max(lo, hi) {
		t.Errorf("At(3.5,4)=%v outside [%v,%v]", mid, lo, hi)
	}
	// Pressure below 1 interpolates toward 1.0.
	tiny, err := m.At(0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := m.At(1, 8)
	if !(tiny > 1 && tiny < full) {
		t.Errorf("At(0.5,8)=%v should sit between 1 and %v", tiny, full)
	}
	// Clamping.
	over, err := m.At(99, 99)
	if err != nil {
		t.Fatal(err)
	}
	max, _ := m.At(8, 8)
	if over != max {
		t.Errorf("clamped lookup = %v, want %v", over, max)
	}
	if v, _ := m.At(0, 5); v != 1 {
		t.Errorf("zero pressure = %v, want 1", v)
	}
	if v, _ := m.At(5, 0); v != 1 {
		t.Errorf("zero nodes = %v, want 1", v)
	}
}

func TestMatrixAtRequiresComplete(t *testing.T) {
	m, _ := NewMatrix(2, 2)
	if _, err := m.At(1, 1); err == nil {
		t.Error("incomplete matrix lookup should fail")
	}
}

func TestBinaryBruteAccuracyAndCost(t *testing.T) {
	ref := fullMatrix(t)
	res, err := BinaryBruteBatch(SerialBatch(syntheticMeasurer(nil)), 8, 8, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matrix.Complete() {
		t.Fatal("binary-brute matrix incomplete")
	}
	errPct, err := res.Matrix.MeanAbsError(ref)
	if err != nil {
		t.Fatal(err)
	}
	if errPct > 0.02 {
		t.Errorf("binary-brute error = %v, want < 2%%", errPct)
	}
	if res.CostPct() >= 100 || res.CostPct() < 20 {
		t.Errorf("binary-brute cost = %v%%, want substantial but below 100", res.CostPct())
	}
}

func TestBinaryOptimizedCheaperThanBrute(t *testing.T) {
	ref := fullMatrix(t)
	brute, err := BinaryBruteBatch(SerialBatch(syntheticMeasurer(nil)), 8, 8, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := BinaryOptimizedBatch(SerialBatch(syntheticMeasurer(nil)), 8, 8, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Measured >= brute.Measured {
		t.Errorf("binary-optimized (%d runs) should be cheaper than brute (%d)",
			opt.Measured, brute.Measured)
	}
	errOpt, err := opt.Matrix.MeanAbsError(ref)
	if err != nil {
		t.Fatal(err)
	}
	if errOpt > 0.06 {
		t.Errorf("binary-optimized error = %v, want moderate (< 6%%)", errOpt)
	}
}

func TestRandomFrac(t *testing.T) {
	ref := fullMatrix(t)
	for _, frac := range []float64{0.3, 0.5} {
		res, err := RandomFracBatch(SerialBatch(syntheticMeasurer(nil)), 8, 8, frac, sim.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Matrix.Complete() {
			t.Fatalf("random-%v matrix incomplete", frac)
		}
		cost := res.CostPct()
		if cost > 100*frac+2 {
			t.Errorf("random-%v cost = %v%%, want <= %v%%", frac, cost, 100*frac)
		}
		e, err := res.Matrix.MeanAbsError(ref)
		if err != nil {
			t.Fatal(err)
		}
		if e > 0.10 {
			t.Errorf("random-%v error = %v, want < 10%% on smooth truth", frac, e)
		}
	}
	if _, err := RandomFracBatch(SerialBatch(syntheticMeasurer(nil)), 8, 8, 0, sim.NewRNG(1)); err == nil {
		t.Error("zero fraction should fail")
	}
	if _, err := RandomFracBatch(SerialBatch(syntheticMeasurer(nil)), 8, 8, 0.5, nil); err == nil {
		t.Error("nil RNG should fail")
	}
}

func TestMeasurerErrorsPropagate(t *testing.T) {
	boom := errors.New("boom")
	bad := func(p float64, j int) (float64, error) { return 0, boom }
	if _, err := FullBruteBatch(SerialBatch(bad), 4, 4); !errors.Is(err, boom) {
		t.Errorf("FullBrute err = %v", err)
	}
	if _, err := BinaryBruteBatch(SerialBatch(bad), 4, 4, 0); !errors.Is(err, boom) {
		t.Errorf("BinaryBrute err = %v", err)
	}
	if _, err := BinaryOptimizedBatch(SerialBatch(bad), 4, 4, 0); !errors.Is(err, boom) {
		t.Errorf("BinaryOptimized err = %v", err)
	}
	if _, err := RandomFracBatch(SerialBatch(bad), 4, 4, 0.5, sim.NewRNG(1)); !errors.Is(err, boom) {
		t.Errorf("RandomFrac err = %v", err)
	}
	invalid := func(p float64, j int) (float64, error) { return -3, nil }
	if _, err := FullBruteBatch(SerialBatch(invalid), 2, 2); err == nil {
		t.Error("invalid measurement should fail")
	}
}

func TestMeanAbsErrorShapeMismatch(t *testing.T) {
	a := fullMatrix(t)
	b, _ := NewMatrix(4, 4)
	if _, err := a.MeanAbsError(b); err == nil {
		t.Error("shape mismatch should fail")
	}
	incomplete, _ := NewMatrix(8, 8)
	if _, err := a.MeanAbsError(incomplete); err == nil {
		t.Error("incomplete reference should fail")
	}
}

func TestFlatTruthGivesFlatMatrixCheaply(t *testing.T) {
	flat := func(p float64, j int) (float64, error) { return 1, nil }
	res, err := BinaryOptimizedBatch(SerialBatch(flat), 8, 8, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matrix.Complete() {
		t.Fatal("incomplete")
	}
	for i := 0; i < 8; i++ {
		for j := 0; j <= 8; j++ {
			if res.Matrix.Cell(i, j) != 1 {
				t.Fatalf("flat truth produced cell (%d,%d) = %v", i, j, res.Matrix.Cell(i, j))
			}
		}
	}
	if res.Measured > 4 {
		t.Errorf("flat truth should need very few runs, used %d", res.Measured)
	}
}

func TestClone(t *testing.T) {
	m := fullMatrix(t)
	c := m.Clone()
	if err := c.Set(0, 1, 99); err != nil {
		t.Fatal(err)
	}
	if m.Cell(0, 1) == 99 {
		t.Error("clone should not share storage")
	}
}

// Property: every profiling algorithm produces a complete matrix whose
// anchored cells (full interference per pressure) match the truth exactly.
func TestAnchorsExactProperty(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		run := func() (Result, error) {
			switch pick % 3 {
			case 0:
				return BinaryBruteBatch(SerialBatch(syntheticMeasurer(nil)), 8, 8, 0.06)
			case 1:
				return BinaryOptimizedBatch(SerialBatch(syntheticMeasurer(nil)), 8, 8, 0.06)
			default:
				return RandomFracBatch(SerialBatch(syntheticMeasurer(nil)), 8, 8, 0.4, sim.NewRNG(seed))
			}
		}
		res, err := run()
		if err != nil || !res.Matrix.Complete() {
			return false
		}
		// The max-nodes anchor of the top and bottom pressure rows is
		// always measured by every algorithm.
		for _, i := range []int{0, 7} {
			if math.Abs(res.Matrix.Cell(i, 8)-truth(float64(i+1), 8)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
