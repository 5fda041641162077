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

// TestFlatMirrorWriteThrough: a cell rewritten after the matrix is
// complete (drift-driven re-profiling does this) is what At reads next,
// and a clone taken before a later rewrite keeps its own copy.
func TestFlatMirrorWriteThrough(t *testing.T) {
	m := fillMatrix(t, 6, 5)
	if v, err := m.At(3, 3); err != nil || v != 1+0.1*2*3 {
		t.Fatalf("At(3,3) = %v, %v; want %v", v, err, 1+0.1*2*3)
	}
	if err := m.setProv(2, 3, 42.5, Measured); err != nil {
		t.Fatal(err)
	}
	if v, err := m.At(3, 3); err != nil || v != 42.5 {
		t.Fatalf("At(3,3) after rewrite = %v, %v; want 42.5", v, err)
	}
	c := m.Clone()
	if err := m.setProv(2, 3, 99, Measured); err != nil {
		t.Fatal(err)
	}
	if v, err := m.At(3, 3); err != nil || v != 99 {
		t.Fatalf("At(3,3) after second rewrite = %v, %v; want 99", v, err)
	}
	if v, err := c.At(3, 3); err != nil || v != 42.5 {
		t.Fatalf("clone At(3,3) after original rewrite = %v, %v; want 42.5", v, err)
	}
}
