// Package profile implements the interference-propagation profiling of
// Section 4: the matrix T of normalized execution times indexed by bubble
// pressure and number of interfering nodes, the cost-reducing profiling
// algorithms binary-brute (Algorithm 1) and binary-optimized (Algorithm 2),
// and the random-sampling baselines the paper compares against (Table 3).
package profile

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/stats"
)

// Provenance records how a matrix cell got its value — the profiling
// algorithms' per-cell audit trail.
type Provenance uint8

// Cell provenance kinds.
const (
	Unset        Provenance = iota // still NaN
	free                           // column 0, fixed at 1 by definition
	Measured                       // a profiling run was spent on it
	interpolated                   // linearly filled between measurements
	inferred                       // product-formula inference (Algorithm 2)
)

// String names the provenance kind.
func (p Provenance) String() string {
	switch p {
	case Unset:
		return "unset"
	case free:
		return "free"
	case Measured:
		return "measured"
	case interpolated:
		return "interpolated"
	case inferred:
		return "inferred"
	default:
		return fmt.Sprintf("Provenance(%d)", int(p))
	}
}

// Matrix is the propagation matrix: At(i, j) is the execution time of the
// application, normalized to its uninterfered run, when j of its nodes
// carry a co-located bubble at pressure i+1. Column 0 is by definition 1.
type Matrix struct {
	Pressures int // number of bubble levels (rows), pressure i+1 per row i
	Nodes     int // number of hosts m (columns 0..m)
	cells     [][]float64
	prov      [][]Provenance
	// complete caches a successful Complete() scan. The flag is monotonic
	// and needs no invalidation: setProv rejects NaN values, so a filled
	// cell can never become unset again — once the matrix is complete it
	// stays complete. While the matrix is still incomplete the flag stays
	// false and Complete() rescans, so At keeps returning the same
	// "matrix incomplete" error for stale matrices. Both fields are
	// atomic because concurrent readers (the parallel restart goroutines
	// of placement.Search calling At/AtPartial) race the lazy scan on
	// matrices that are still — or permanently, after cell loss — incomplete.
	complete atomic.Bool
	// completeScans counts full completeness scans (white-box test hook
	// pinning that At does not rescan on every prediction).
	completeScans atomic.Int64
	// flat is the contiguous row-major mirror of cells (stride Nodes+1),
	// built by the first successful Complete() scan and kept in sync by
	// setProv afterwards. At reads it instead of chasing per-row slice
	// headers, so a prediction's four cell loads hit one cache-flat
	// array. Published with compare-and-swap *before* the complete flag
	// is stored: a reader that observes complete==true is guaranteed a
	// non-nil table.
	flat atomic.Pointer[[]float64]
}

// NewMatrix returns a matrix with every measurable cell unset (NaN) and
// column 0 fixed at 1.
func NewMatrix(pressures, nodes int) (*Matrix, error) {
	if pressures <= 0 || nodes <= 0 {
		return nil, errors.New("profile: non-positive matrix dimensions")
	}
	cells := make([][]float64, pressures)
	prov := make([][]Provenance, pressures)
	for i := range cells {
		cells[i] = make([]float64, nodes+1)
		prov[i] = make([]Provenance, nodes+1)
		for j := range cells[i] {
			cells[i][j] = math.NaN()
		}
		cells[i][0] = 1
		prov[i][0] = free
	}
	return &Matrix{Pressures: pressures, Nodes: nodes, cells: cells, prov: prov}, nil
}

// Set stores a measured normalized time for (pressure row i, interfering
// nodes j), marking the cell Measured.
func (m *Matrix) Set(i, j int, v float64) error {
	return m.setProv(i, j, v, Measured)
}

// setProv stores a normalized time with an explicit provenance.
func (m *Matrix) setProv(i, j int, v float64, p Provenance) error {
	if i < 0 || i >= m.Pressures || j < 0 || j > m.Nodes {
		return fmt.Errorf("profile: cell (%d,%d) out of range", i, j)
	}
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("profile: invalid normalized time %v", v)
	}
	m.cells[i][j] = v
	m.prov[i][j] = p
	// Keep the flat mirror coherent for matrices that are written after
	// completion (e.g. drift-driven re-profiling overwriting a cell).
	if f := m.flat.Load(); f != nil {
		(*f)[i*(m.Nodes+1)+j] = v
	}
	return nil
}

// CellProvenance reports how cell (i, j) was filled.
func (m *Matrix) CellProvenance(i, j int) Provenance {
	if i < 0 || i >= m.Pressures || j < 0 || j > m.Nodes {
		return Unset
	}
	return m.prov[i][j]
}

// ProvenanceCounts tallies the measurable cells (columns >= 1) by how they
// were filled — the per-cell cost audit of the profiling algorithms.
func (m *Matrix) ProvenanceCounts() map[string]int {
	out := map[string]int{}
	for i := range m.prov {
		for j := 1; j < len(m.prov[i]); j++ {
			out[m.prov[i][j].String()]++
		}
	}
	return out
}

// Cell returns the stored value for (i, j); NaN when unset.
func (m *Matrix) Cell(i, j int) float64 { return m.cells[i][j] }

// Complete reports whether every cell has been filled. The first
// successful scan is cached (completeness is monotonic — cells can never
// be unset), so the per-prediction completeness check in At is a single
// branch instead of an O(pressures×nodes) rescan.
func (m *Matrix) Complete() bool {
	if m.complete.Load() {
		return true
	}
	m.completeScans.Add(1)
	for i := range m.cells {
		for _, v := range m.cells[i] {
			if math.IsNaN(v) {
				return false
			}
		}
	}
	m.buildFlat()
	m.complete.Store(true)
	return true
}

// buildFlat publishes the contiguous mirror of cells. Concurrent
// completeness scans may race here; the first CAS wins and later
// builders discard their copy, so readers only ever see one table.
func (m *Matrix) buildFlat() {
	stride := m.Nodes + 1
	flat := make([]float64, m.Pressures*stride)
	for i := range m.cells {
		copy(flat[i*stride:(i+1)*stride], m.cells[i])
	}
	m.flat.CompareAndSwap(nil, &flat)
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 { return append([]float64(nil), m.cells[i]...) }

// At evaluates the completed matrix at a possibly fractional pressure and
// node count using bilinear interpolation. Pressure 0 means no
// interference (1.0); pressures interpolate between a virtual all-ones row
// at 0 and row 0 at pressure 1. Values outside the calibrated range clamp.
func (m *Matrix) At(pressure, nodes float64) (float64, error) {
	if !m.Complete() {
		return 0, errors.New("profile: matrix incomplete")
	}
	if math.IsNaN(pressure) || math.IsInf(pressure, 0) || math.IsNaN(nodes) || math.IsInf(nodes, 0) {
		return 0, fmt.Errorf("profile: non-finite query (%v, %v)", pressure, nodes)
	}
	if pressure <= 0 || nodes <= 0 {
		return 1, nil
	}
	nodes = stats.Clamp(nodes, 0, float64(m.Nodes))
	pressure = stats.Clamp(pressure, 0, float64(m.Pressures))

	// The Complete() gate above guarantees the flat mirror is published;
	// evaluation walks it with dense index arithmetic (row base + column)
	// instead of chasing per-row slice headers. The node-axis floor and
	// fraction are loop-invariant across the two rows, and the arithmetic
	// is exactly the old per-row computation, so results are bit-identical.
	flat := *m.flat.Load()
	stride := m.Nodes + 1
	j := int(math.Floor(nodes))
	jfrac := nodes - float64(j)
	// rowAt evaluates a (virtual) pressure row at the fractional node
	// count.
	rowAt := func(i int) float64 {
		if i < 0 {
			return 1 // virtual pressure-0 row
		}
		base := i * stride
		if j >= m.Nodes {
			return flat[base+m.Nodes]
		}
		return stats.Lerp(flat[base+j], flat[base+j+1], jfrac)
	}
	// Pressure p sits between rows floor(p)-1 and ceil(p)-1 (row i holds
	// pressure i+1), with the virtual all-ones row at p=0.
	pLow := math.Floor(pressure)
	frac := pressure - pLow
	lowIdx := int(pLow) - 1
	if frac == 0 {
		return rowAt(lowIdx), nil
	}
	hiIdx := lowIdx + 1
	if hiIdx >= m.Pressures {
		return rowAt(m.Pressures - 1), nil
	}
	return stats.Lerp(rowAt(lowIdx), rowAt(hiIdx), frac), nil
}

// AtPartial is At for matrices that may have lost cells. When the matrix
// is complete it is exactly At; otherwise it evaluates the same bilinear
// interpolation if every cell the query touches is still set, and
// returns an error naming a missing cell it needs. This is the
// graceful-degradation path under profile-cell loss — queries over
// surviving cells keep using the measured model, and only queries over
// lost cells force the caller's fallback predictor.
func (m *Matrix) AtPartial(pressure, nodes float64) (float64, error) {
	if m.Complete() {
		return m.At(pressure, nodes)
	}
	if math.IsNaN(pressure) || math.IsInf(pressure, 0) || math.IsNaN(nodes) || math.IsInf(nodes, 0) {
		return 0, fmt.Errorf("profile: non-finite query (%v, %v)", pressure, nodes)
	}
	if pressure <= 0 || nodes <= 0 {
		return 1, nil
	}
	nodes = stats.Clamp(nodes, 0, float64(m.Nodes))
	pressure = stats.Clamp(pressure, 0, float64(m.Pressures))

	cell := func(i, j int) (float64, error) {
		v := m.cells[i][j]
		if math.IsNaN(v) {
			return 0, fmt.Errorf("profile: cell (%d,%d) lost", i, j)
		}
		return v, nil
	}
	// rowAt mirrors At's row evaluation, touching only the cells the
	// query actually needs (an integral node count needs one cell, not
	// two).
	rowAt := func(i int) (float64, error) {
		if i < 0 {
			return 1, nil // virtual pressure-0 row
		}
		j := int(math.Floor(nodes))
		if j >= m.Nodes {
			return cell(i, m.Nodes)
		}
		frac := nodes - float64(j)
		a, err := cell(i, j)
		if err != nil || frac == 0 {
			return a, err
		}
		b, err := cell(i, j+1)
		if err != nil {
			return 0, err
		}
		return stats.Lerp(a, b, frac), nil
	}
	pLow := math.Floor(pressure)
	frac := pressure - pLow
	lowIdx := int(pLow) - 1
	if frac == 0 {
		return rowAt(lowIdx)
	}
	hiIdx := lowIdx + 1
	if hiIdx >= m.Pressures {
		return rowAt(m.Pressures - 1)
	}
	lo, err := rowAt(lowIdx)
	if err != nil {
		return 0, err
	}
	hi, err := rowAt(hiIdx)
	if err != nil {
		return 0, err
	}
	return stats.Lerp(lo, hi, frac), nil
}

// MeanAbsError returns the mean relative error of this matrix against a
// reference over all measurable cells (j >= 1).
func (m *Matrix) MeanAbsError(ref *Matrix) (float64, error) {
	if ref.Pressures != m.Pressures || ref.Nodes != m.Nodes {
		return 0, errors.New("profile: matrix shape mismatch")
	}
	if !m.Complete() || !ref.Complete() {
		return 0, errors.New("profile: matrices must be complete")
	}
	var sum float64
	var n int
	for i := 0; i < m.Pressures; i++ {
		for j := 1; j <= m.Nodes; j++ {
			sum += stats.RelErr(m.cells[i][j], ref.cells[i][j])
			n++
		}
	}
	return sum / float64(n), nil
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c, _ := NewMatrix(m.Pressures, m.Nodes)
	for i := range m.cells {
		copy(c.cells[i], m.cells[i])
		copy(c.prov[i], m.prov[i])
	}
	if m.complete.Load() {
		// The clone inherits the cached completeness, so it must publish
		// its flat mirror now — its At will skip the scan that would
		// otherwise build it.
		c.buildFlat()
		c.complete.Store(true)
	}
	return c
}

// CloneDropping returns a deep copy with every measurable cell (columns
// >= 1) selected by drop reset to unset — the profile-cell-loss fault.
// Column 0 stays free by definition. The source matrix is untouched (its
// completeness stays monotonic); the clone never inherits the cached
// completeness flag, so it rescans and reports incomplete when cells
// were actually dropped.
func (m *Matrix) CloneDropping(drop func(i, j int) bool) *Matrix {
	c, _ := NewMatrix(m.Pressures, m.Nodes)
	for i := range m.cells {
		copy(c.cells[i], m.cells[i])
		copy(c.prov[i], m.prov[i])
		if drop == nil {
			continue
		}
		for j := 1; j <= m.Nodes; j++ {
			if drop(i, j) {
				c.cells[i][j] = math.NaN()
				c.prov[i][j] = Unset
			}
		}
	}
	return c
}
