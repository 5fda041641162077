package profile

import (
	"math"
	"testing"
)

// This file proves the batched (level-synchronous) algorithms equivalent
// to the pre-batching implementations: refBinaryRow/refBinaryCol below are
// verbatim copies of the depth-first recursion the package shipped before
// the BatchMeasurer refactor. For any order-independent measurer the two
// must produce bit-identical matrices, provenance, and call counts.

// Measurer performs one profiling run: the normalized execution time of
// the application with `interfering` nodes carrying a bubble at `pressure`.
type Measurer func(pressure float64, interfering int) (float64, error)

// SerialBatch adapts a single-run Measurer into a BatchMeasurer that runs
// the settings one by one in order — the reference execution the batched
// implementations are tested against.
func SerialBatch(m Measurer) BatchMeasurer {
	return func(settings []Setting) ([]float64, error) {
		out := make([]float64, len(settings))
		for i, s := range settings {
			v, err := m(s.Pressure, s.Interfering)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
}

// measure fetches one cell through the counter, as the depth-first
// reference does.
func (c *counter) measure(pressureRow, nodes int) (float64, error) {
	key := [2]int{pressureRow, nodes}
	if v, ok := c.cache[key]; ok {
		return v, nil
	}
	if err := c.measureAll([][2]int{key}); err != nil {
		return 0, err
	}
	return c.cache[key], nil
}

func refBinaryRow(c *counter, mat *Matrix, i, lo, hi int, eps float64) error {
	if hi-lo <= 1 {
		return nil
	}
	if math.Abs(mat.Cell(i, hi)-mat.Cell(i, lo)) <= eps {
		return nil
	}
	mid := (lo + hi) / 2
	v, err := c.measure(i, mid)
	if err != nil {
		return err
	}
	if err := mat.Set(i, mid, v); err != nil {
		return err
	}
	if err := refBinaryRow(c, mat, i, lo, mid, eps); err != nil {
		return err
	}
	return refBinaryRow(c, mat, i, mid, hi, eps)
}

func refBinaryCol(c *counter, mat *Matrix, j, lo, hi int, eps float64) error {
	if hi-lo <= 1 {
		return nil
	}
	if math.Abs(mat.Cell(hi, j)-mat.Cell(lo, j)) <= eps {
		return nil
	}
	mid := (lo + hi) / 2
	v, err := c.measure(mid, j)
	if err != nil {
		return err
	}
	if err := mat.Set(mid, j, v); err != nil {
		return err
	}
	if err := refBinaryCol(c, mat, j, lo, mid, eps); err != nil {
		return err
	}
	return refBinaryCol(c, mat, j, mid, hi, eps)
}

func refBinaryBrute(m Measurer, pressures, nodes int, eps float64) (Result, error) {
	if eps <= 0 {
		eps = defaultEps
	}
	mat, err := NewMatrix(pressures, nodes)
	if err != nil {
		return Result{}, err
	}
	c := newCounter(SerialBatch(m))
	for i := 0; i < pressures; i++ {
		v, err := c.measure(i, nodes)
		if err != nil {
			return Result{}, err
		}
		if err := mat.Set(i, nodes, v); err != nil {
			return Result{}, err
		}
		if err := refBinaryRow(c, mat, i, 0, nodes, eps); err != nil {
			return Result{}, err
		}
		if err := interpolateRow(mat, i); err != nil {
			return Result{}, err
		}
	}
	return Result{Matrix: mat, Measured: c.calls, Total: pressures * nodes, Provenance: mat.ProvenanceCounts()}, nil
}

func refBinaryOptimized(m Measurer, pressures, nodes int, eps float64) (Result, error) {
	if eps <= 0 {
		eps = defaultEps
	}
	mat, err := NewMatrix(pressures, nodes)
	if err != nil {
		return Result{}, err
	}
	c := newCounter(SerialBatch(m))
	n := pressures
	for _, i := range []int{0, n - 1} {
		v, err := c.measure(i, nodes)
		if err != nil {
			return Result{}, err
		}
		if err := mat.Set(i, nodes, v); err != nil {
			return Result{}, err
		}
	}
	if err := refBinaryRow(c, mat, n-1, 0, nodes, eps); err != nil {
		return Result{}, err
	}
	if err := interpolateRow(mat, n-1); err != nil {
		return Result{}, err
	}
	if err := refBinaryCol(c, mat, nodes, 0, n-1, eps); err != nil {
		return Result{}, err
	}
	if err := interpolateCol(mat, nodes); err != nil {
		return Result{}, err
	}
	denom := mat.Cell(n-1, nodes) - 1
	for i := 0; i < n-1; i++ {
		for j := 1; j < nodes; j++ {
			if !math.IsNaN(mat.Cell(i, j)) {
				continue
			}
			var v float64
			if denom <= 0 {
				v = 1
			} else {
				v = 1 + (mat.Cell(i, nodes)-1)*(mat.Cell(n-1, j)-1)/denom
			}
			if v < 1 {
				v = 1
			}
			if err := mat.SetProv(i, j, v, Inferred); err != nil {
				return Result{}, err
			}
		}
	}
	return Result{Matrix: mat, Measured: c.calls, Total: pressures * nodes, Provenance: mat.ProvenanceCounts()}, nil
}

// surfaces is a set of order-independent synthetic measurers with
// different search behaviors: smooth growth (deep binary search), flat
// (immediate cutoff), and a step (asymmetric recursion).
func surfaces() map[string]Measurer {
	return map[string]Measurer{
		"smooth": func(p float64, n int) (float64, error) {
			return 1 + 0.12*p*math.Log1p(float64(n)), nil
		},
		"flat": func(p float64, n int) (float64, error) {
			return 1.01, nil
		},
		"step": func(p float64, n int) (float64, error) {
			if n >= 5 && p >= 4 {
				return 2.5, nil
			}
			return 1 + 0.01*float64(n), nil
		},
		"jump": func(p float64, n int) (float64, error) {
			if n == 0 {
				return 1, nil
			}
			return 1.4 + 0.02*p + 0.001*float64(n), nil
		},
	}
}

func assertResultsEqual(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Measured != want.Measured || got.Total != want.Total {
		t.Errorf("%s: measured/total = %d/%d, want %d/%d",
			label, got.Measured, got.Total, want.Measured, want.Total)
	}
	for k, v := range want.Provenance {
		if got.Provenance[k] != v {
			t.Errorf("%s: provenance[%s] = %d, want %d", label, k, got.Provenance[k], v)
		}
	}
	for i := 0; i < want.Matrix.Pressures; i++ {
		for j := 0; j <= want.Matrix.Nodes; j++ {
			g, w := got.Matrix.Cell(i, j), want.Matrix.Cell(i, j)
			if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Errorf("%s: cell(%d,%d) = %v, want %v", label, i, j, g, w)
			}
			if got.Matrix.prov[i][j] != want.Matrix.prov[i][j] {
				t.Errorf("%s: prov(%d,%d) = %v, want %v",
					label, i, j, got.Matrix.prov[i][j], want.Matrix.prov[i][j])
			}
		}
	}
}

func TestBinaryBruteBatchMatchesDFSReference(t *testing.T) {
	for name, m := range surfaces() {
		want, err := refBinaryBrute(m, 8, 8, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := BinaryBruteBatch(SerialBatch(m), 8, 8, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertResultsEqual(t, "binary-brute/"+name, got, want)
	}
}

func TestBinaryOptimizedBatchMatchesDFSReference(t *testing.T) {
	for name, m := range surfaces() {
		want, err := refBinaryOptimized(m, 8, 8, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := BinaryOptimizedBatch(SerialBatch(m), 8, 8, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertResultsEqual(t, "binary-optimized/"+name, got, want)
	}
}
