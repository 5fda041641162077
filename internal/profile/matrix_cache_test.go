package profile

import (
	"strings"
	"testing"
)

// fillMatrix completes every measurable cell of a fresh matrix.
func fillMatrix(t *testing.T, pressures, nodes int) *Matrix {
	t.Helper()
	m, err := NewMatrix(pressures, nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pressures; i++ {
		for j := 1; j <= nodes; j++ {
			if err := m.Set(i, j, 1+0.1*float64(i)*float64(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

// TestAtCachesCompleteness is the regression test for the hot-path bug
// where At re-ran a full O(pressures×nodes) Complete() scan on every
// single prediction: after the matrix is complete, any number of At calls
// must cost at most one scan.
func TestAtCachesCompleteness(t *testing.T) {
	m := fillMatrix(t, 8, 8)
	for i := 0; i < 1000; i++ {
		if _, err := m.At(3.5, 2.5); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.completeScans.Load(); got != 1 {
		t.Errorf("1000 At calls performed %d completeness scans, want exactly 1", got)
	}
}

// TestAtIncompleteStillErrors pins that the cached flag never hides
// staleness: an incomplete matrix keeps returning the same error, and
// filling the last cell flips it usable without any explicit
// invalidation step.
func TestAtIncompleteStillErrors(t *testing.T) {
	m, err := NewMatrix(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 1; j <= 4; j++ {
			if i == 3 && j == 4 {
				continue // leave one cell unset
			}
			if err := m.Set(i, j, 1.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := m.At(2, 2); err == nil || !strings.Contains(err.Error(), "matrix incomplete") {
			t.Fatalf("incomplete matrix At error = %v, want \"matrix incomplete\"", err)
		}
	}
	if err := m.Set(3, 4, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.At(2, 2); err != nil {
		t.Errorf("At after completing the matrix: %v", err)
	}
	if !m.Complete() {
		t.Error("matrix should report complete")
	}
}

// TestCloneCarriesCompletenessCache checks that cloning a complete matrix
// does not force the copy to rescan.
func TestCloneCarriesCompletenessCache(t *testing.T) {
	m := fillMatrix(t, 4, 4)
	if !m.Complete() {
		t.Fatal("matrix should be complete")
	}
	c := m.Clone()
	if _, err := c.At(1, 1); err != nil {
		t.Fatal(err)
	}
	if got := c.completeScans.Load(); got != 0 {
		t.Errorf("clone of a complete matrix rescanned %d times, want 0", got)
	}
	// A clone of an incomplete matrix must still rescan and error.
	n, _ := NewMatrix(2, 2)
	if _, err := n.Clone().At(1, 1); err == nil {
		t.Error("clone of incomplete matrix should still error in At")
	}
}

// TestFlatMirrorWriteThrough pins the flat-table read path against the
// cell-based AtPartial reference across completion, in-place rewrites
// (setProv must write through to the mirror), and cloning.
func TestFlatMirrorWriteThrough(t *testing.T) {
	m := fillMatrix(t, 6, 5)
	points := [][2]float64{
		{0, 0}, {1, 1}, {2.5, 1.5}, {5.9, 4.9}, {7, 9}, {-1, 2}, {3, 0.25},
	}
	check := func(tag string, mat *Matrix) {
		t.Helper()
		for _, pt := range points {
			got, err := mat.At(pt[0], pt[1])
			if err != nil {
				t.Fatalf("%s: At(%v, %v): %v", tag, pt[0], pt[1], err)
			}
			want, err := mat.AtPartial(pt[0], pt[1])
			if err != nil {
				t.Fatalf("%s: AtPartial(%v, %v): %v", tag, pt[0], pt[1], err)
			}
			if got != want {
				t.Fatalf("%s: At(%v, %v) = %v, want %v (bit-exact vs cell path)", tag, pt[0], pt[1], got, want)
			}
		}
	}
	check("complete", m)

	// Rewriting a cell of a complete matrix must be visible through the
	// flat mirror immediately.
	if err := m.setProv(2, 3, 42.5, Measured); err != nil {
		t.Fatal(err)
	}
	if v, err := m.At(3, 3); err != nil || v != 42.5 {
		t.Fatalf("At(3,3) after rewrite = %v, %v; want 42.5", v, err)
	}
	check("after rewrite", m)

	c := m.Clone()
	check("clone", c)
	// Clone must be independent: a write to the original may not leak.
	if err := m.setProv(2, 3, 99, Measured); err != nil {
		t.Fatal(err)
	}
	if v, err := c.At(3, 3); err != nil || v != 42.5 {
		t.Fatalf("clone At(3,3) after original rewrite = %v, %v; want 42.5", v, err)
	}
}
