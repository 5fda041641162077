package core

import (
	"errors"
	"testing"

	"repro/internal/hetero"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

// resTestModel builds a complete 4x4 model whose matrix values are a
// simple deterministic ramp.
func resTestModel(t *testing.T) *Model {
	t.Helper()
	m, err := profile.NewMatrix(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 1; j <= 4; j++ {
			if err := m.Set(i, j, 1+0.1*float64(i)+0.05*float64(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return &Model{Workload: "w", Matrix: m, Policy: hetero.NPlus1Max, BubbleScore: 3}
}

type staticPredictor float64

func (s staticPredictor) PredictPressures([]float64) (float64, error) { return float64(s), nil }

type failingPredictor struct{}

func (failingPredictor) PredictPressures([]float64) (float64, error) {
	return 0, errors.New("nope")
}

func TestPartialMatchesModelOnCompleteMatrix(t *testing.T) {
	model := resTestModel(t)
	part := Partial{M: model}
	for _, ps := range [][]float64{{0, 0, 0}, {2, 0, 0}, {3, 3, 1}, {8, 8, 8, 8}} {
		want, werr := model.PredictPressures(ps)
		got, gerr := part.PredictPressures(ps)
		if (werr == nil) != (gerr == nil) || got != want {
			t.Errorf("pressures %v: Partial = (%v, %v), Model = (%v, %v)", ps, got, gerr, want, werr)
		}
	}
	if _, err := (Partial{}).PredictPressures([]float64{1}); err == nil {
		t.Error("empty Partial predicted without error")
	}
}

func TestResilientFallsBackOnLostCells(t *testing.T) {
	model := resTestModel(t)
	// Drop the cell pairwise NPlus1Max queries hit for a full-pressure
	// vector: pressure clamps to 4 (row 3), count 3+1 = 4 -> cell (3,4).
	lossy := model.Matrix.CloneDropping(func(i, j int) bool { return i == 3 && j == 4 })
	lm := *model
	lm.Matrix = lossy

	reg := telemetry.NewRegistry()
	r := NewResilient("w", Partial{M: &lm}, staticPredictor(1.75), reg)

	// A query over surviving cells: primary answers.
	low := []float64{1, 0, 0, 0}
	v, src, err := r.PredictTagged(low)
	if err != nil || src != sourcePrimary {
		t.Fatalf("low-pressure predict = (%v, %v, %v), want primary", v, src, err)
	}
	if want, _ := model.PredictPressures(low); v != want {
		t.Errorf("primary prediction %v != clean model %v", v, want)
	}
	// A query over the lost cell: fallback answers and the metric moves.
	hi := []float64{6, 6, 6, 6}
	v, src, err = r.PredictTagged(hi)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceFallback || v != 1.75 {
		t.Errorf("lost-cell predict = (%v, %v), want fallback 1.75", v, src)
	}
	if p, f := r.Sources(); p != 1 || f != 1 {
		t.Errorf("Sources = (%d, %d), want (1, 1)", p, f)
	}
	if got := reg.Counter(telemetry.Label(MetricModelFallback, "app", "w")).Value(); got != 1 {
		t.Errorf("model_fallback_total = %d, want 1", got)
	}
	if sourcePrimary.String() != "primary" || SourceFallback.String() != "fallback" {
		t.Error("Source names changed")
	}
}

func TestResilientErrorPaths(t *testing.T) {
	// No fallback: the primary's error surfaces.
	r := NewResilient("w", failingPredictor{}, nil, nil)
	if _, _, err := r.PredictTagged([]float64{1}); err == nil {
		t.Error("primary failure with no fallback did not error")
	}
	// The fallback failing too: its error surfaces.
	r = NewResilient("w", failingPredictor{}, failingPredictor{}, nil)
	if _, src, err := r.PredictTagged([]float64{1}); err == nil || src != SourceFallback {
		t.Errorf("double failure = (%v, %v)", src, err)
	}
	// No primary at all.
	r = &Resilient{App: "w"}
	if _, _, err := r.PredictTagged([]float64{1}); err == nil {
		t.Error("missing primary did not error")
	}
	if p, f := r.Sources(); p != 0 || f != 0 {
		t.Errorf("error paths moved the counters: (%d, %d)", p, f)
	}
}
