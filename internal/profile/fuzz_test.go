package profile

import (
	"math"
	"testing"
)

// rampMatrix builds a complete 4x4 matrix whose cells grow with both
// pressure and node count, like a real propagation profile.
func rampMatrix(t interface{ Fatal(...any) }) *Matrix {
	m, err := NewMatrix(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j <= 4; j++ {
			if err := m.Set(i, j, 1+0.3*float64(i+1)*float64(j)/4); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

// FuzzMatrixAt hammers the bilinear interpolator with arbitrary query
// points. On a complete matrix, At must never panic, must only error on
// non-finite queries, and must agree exactly with AtPartial.
func FuzzMatrixAt(f *testing.F) {
	f.Add(0.0, 0.0)
	f.Add(1.0, 4.0)
	f.Add(2.5, 1.5)
	f.Add(4.0, 0.25)
	f.Add(-3.0, 2.0)
	f.Add(100.0, 100.0)
	f.Add(math.SmallestNonzeroFloat64, math.MaxFloat64)
	f.Fuzz(func(t *testing.T, pressure, nodes float64) {
		m := rampMatrix(t)
		v, err := m.At(pressure, nodes)
		finiteQuery := !math.IsNaN(pressure) && !math.IsInf(pressure, 0) &&
			!math.IsNaN(nodes) && !math.IsInf(nodes, 0)
		if finiteQuery != (err == nil) {
			t.Fatalf("At(%v, %v): err = %v, want error iff non-finite query", pressure, nodes, err)
		}
		if err != nil {
			return
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("At(%v, %v) = %v, want finite", pressure, nodes, v)
		}
		if v < 1 {
			t.Fatalf("At(%v, %v) = %v below the solo baseline of 1", pressure, nodes, v)
		}
		pv, perr := m.AtPartial(pressure, nodes)
		if perr != nil {
			t.Fatalf("AtPartial errored on a complete matrix: %v", perr)
		}
		if math.Float64bits(pv) != math.Float64bits(v) {
			t.Fatalf("AtPartial(%v, %v) = %v diverges from At = %v on a complete matrix",
				pressure, nodes, pv, v)
		}
	})
}

// FuzzSetProv feeds arbitrary cell writes to the matrix and checks its
// invariants: no panics, out-of-range or invalid-value writes are
// rejected without mutating state, and completeness is monotonic (a
// matrix can never become incomplete again).
func FuzzSetProv(f *testing.F) {
	f.Add(0, 0, 1.0, 2, 1, 4, 1.5, 0)
	f.Add(3, 4, 2.5, 1, -1, 0, 1.0, 3)
	f.Add(2, 2, -0.5, 0, 0, 5, 0.0, 99)
	f.Add(1, 3, 1.25, 4, 3, 2, math.MaxFloat64, 2)
	f.Fuzz(func(t *testing.T, i1, j1 int, v1 float64, p1, i2, j2 int, v2 float64, p2 int) {
		m := rampMatrix(t) // complete: completeness must survive every write
		if !m.Complete() {
			t.Fatal("ramp matrix not complete")
		}
		for _, w := range []struct {
			i, j int
			v    float64
			p    int
		}{{i1, j1, v1, p1}, {i2, j2, v2, p2}} {
			before := math.NaN()
			inRange := w.i >= 0 && w.i < m.Pressures && w.j >= 0 && w.j <= m.Nodes
			if inRange {
				before = m.Cell(w.i, w.j)
			}
			err := m.setProv(w.i, w.j, w.v, Provenance(w.p))
			valid := inRange && w.v >= 0 && !math.IsNaN(w.v) && !math.IsInf(w.v, 0)
			if valid != (err == nil) {
				t.Fatalf("setProv(%d,%d,%v,%d): err = %v, want error iff invalid args",
					w.i, w.j, w.v, w.p, err)
			}
			if err != nil && inRange && m.Cell(w.i, w.j) != before {
				t.Fatalf("rejected setProv(%d,%d,%v) still mutated the cell: %v -> %v",
					w.i, w.j, w.v, before, m.Cell(w.i, w.j))
			}
			if !m.Complete() {
				t.Fatalf("setProv(%d,%d,%v) made a complete matrix incomplete", w.i, w.j, w.v)
			}
		}
		if _, err := m.At(1.5, 2.5); err != nil {
			t.Fatalf("At on the still-complete matrix errored: %v", err)
		}
	})
}
