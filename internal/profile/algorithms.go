package profile

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Setting is one profiling request: a bubble pressure level and the number
// of interfering nodes carrying it.
type Setting struct {
	Pressure    float64
	Interfering int
}

// BatchMeasurer performs several profiling runs whose settings are known
// up front and returns one value per setting, in order. Implementations
// may run the settings concurrently (measure.Batch does), but the returned
// values must equal what measuring each setting in slice order would give.
type BatchMeasurer func([]Setting) ([]float64, error)

// Result is the outcome of a profiling algorithm.
type Result struct {
	Matrix   *Matrix
	Measured int // profiling runs performed
	Total    int // measurable settings: pressures * nodes (column 0 is free)
	// Provenance tallies the measurable cells by how they were filled
	// (measured / interpolated / inferred) — see Matrix.ProvenanceCounts.
	Provenance map[string]int
}

// CostPct returns the percentage of settings actually measured (the
// paper's profiling-cost metric of Table 3).
func (r Result) CostPct() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Measured) / float64(r.Total)
}

// counter wraps a BatchMeasurer and counts distinct (pressure,nodes)
// calls; repeated requests for the same setting are served from cache (a
// real deployment would reuse the measurement too).
type counter struct {
	bm    BatchMeasurer
	cache map[[2]int]float64
	calls int
}

func newCounter(bm BatchMeasurer) *counter {
	return &counter{bm: bm, cache: map[[2]int]float64{}}
}

// measureAll fetches the given (pressureRow, nodes) cells, deduplicating
// against the cache and within the request, issuing one batch call in
// first-appearance order.
func (c *counter) measureAll(cells [][2]int) error {
	need := make([][2]int, 0, len(cells))
outer:
	for _, k := range cells {
		if _, ok := c.cache[k]; ok {
			continue
		}
		// Rounds are small (at most a couple of cells per open span), so a
		// linear scan dedupes within the request without allocating.
		for _, n := range need {
			if n == k {
				continue outer
			}
		}
		need = append(need, k)
	}
	if len(need) == 0 {
		return nil
	}
	settings := make([]Setting, len(need))
	for i, k := range need {
		settings[i] = Setting{Pressure: float64(k[0] + 1), Interfering: k[1]}
	}
	vals, err := c.bm(settings)
	if err != nil {
		return err
	}
	if len(vals) != len(settings) {
		return fmt.Errorf("profile: batch measurer returned %d values for %d settings", len(vals), len(settings))
	}
	for i, v := range vals {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("profile: measurer returned invalid time %v", v)
		}
		c.cache[need[i]] = v
		c.calls++
	}
	return nil
}

// defaultEps is the indistinguishability threshold of the binary search:
// if two settings differ by less than this (normalized time), the settings
// between them are interpolated instead of measured.
const defaultEps = 0.06

// FullBruteBatch measures every setting, submitted as one batch in
// row-major order; it is the ground truth the paper's accuracy percentages
// are computed against.
func FullBruteBatch(bm BatchMeasurer, pressures, nodes int) (Result, error) {
	mat, err := NewMatrix(pressures, nodes)
	if err != nil {
		return Result{}, err
	}
	c := newCounter(bm)
	cells := make([][2]int, 0, pressures*nodes)
	for i := 0; i < pressures; i++ {
		for j := 1; j <= nodes; j++ {
			cells = append(cells, [2]int{i, j})
		}
	}
	if err := c.measureAll(cells); err != nil {
		return Result{}, err
	}
	for _, k := range cells {
		if err := mat.Set(k[0], k[1], c.cache[k]); err != nil {
			return Result{}, err
		}
	}
	return Result{Matrix: mat, Measured: c.calls, Total: pressures * nodes, Provenance: mat.ProvenanceCounts()}, nil
}

// span is one open interval of the binary search: the cells strictly
// between lo and hi on the given row (or column) are still undecided.
type span struct{ row, lo, hi int }

// binaryRowsBatch is the paper's profile_binary_row run over any number of
// rows at once, level-synchronously: every round batches the midpoints of
// all intervals whose endpoint values differ by more than eps, then splits
// those intervals. Each interval's split decision depends only on its own
// endpoint values, so the *set* of measured cells is exactly what the
// depth-first recursion would measure — only the measurement order
// differs, which lets one batch carry a whole search level.
func binaryRowsBatch(c *counter, mat *Matrix, rows []int, nodes int, eps float64) error {
	spans := make([]span, 0, len(rows))
	for _, i := range rows {
		spans = append(spans, span{i, 0, nodes})
	}
	for len(spans) > 0 {
		var split []span
		var cells [][2]int
		for _, s := range spans {
			if s.hi-s.lo <= 1 {
				continue
			}
			if math.Abs(mat.Cell(s.row, s.hi)-mat.Cell(s.row, s.lo)) <= eps {
				continue
			}
			mid := (s.lo + s.hi) / 2
			cells = append(cells, [2]int{s.row, mid})
			split = append(split, s)
		}
		if len(split) == 0 {
			return nil
		}
		if err := c.measureAll(cells); err != nil {
			return err
		}
		next := make([]span, 0, 2*len(split))
		for _, s := range split {
			mid := (s.lo + s.hi) / 2
			if err := mat.Set(s.row, mid, c.cache[[2]int{s.row, mid}]); err != nil {
				return err
			}
			next = append(next, span{s.row, s.lo, mid}, span{s.row, mid, s.hi})
		}
		spans = next
	}
	return nil
}

// binaryColsBatch is binaryRowsBatch transposed: span.row holds the column
// index and the interval runs over pressure rows.
func binaryColsBatch(c *counter, mat *Matrix, cols []int, loRow, hiRow int, eps float64) error {
	spans := make([]span, 0, len(cols))
	for _, j := range cols {
		spans = append(spans, span{j, loRow, hiRow})
	}
	for len(spans) > 0 {
		var split []span
		var cells [][2]int
		for _, s := range spans {
			if s.hi-s.lo <= 1 {
				continue
			}
			if math.Abs(mat.Cell(s.hi, s.row)-mat.Cell(s.lo, s.row)) <= eps {
				continue
			}
			mid := (s.lo + s.hi) / 2
			cells = append(cells, [2]int{mid, s.row})
			split = append(split, s)
		}
		if len(split) == 0 {
			return nil
		}
		if err := c.measureAll(cells); err != nil {
			return err
		}
		next := make([]span, 0, 2*len(split))
		for _, s := range split {
			mid := (s.lo + s.hi) / 2
			if err := mat.Set(mid, s.row, c.cache[[2]int{mid, s.row}]); err != nil {
				return err
			}
			next = append(next, span{s.row, s.lo, mid}, span{s.row, mid, s.hi})
		}
		spans = next
	}
	return nil
}

// interpolateRow linearly fills the unmeasured cells of row i, marking
// them interpolated.
func interpolateRow(mat *Matrix, i int) error {
	row := mat.row(i)
	wasNaN := make([]bool, len(row))
	for j, v := range row {
		wasNaN[j] = math.IsNaN(v)
	}
	if _, err := stats.FillLinear(row); err != nil {
		return err
	}
	for j, was := range wasNaN {
		if was {
			mat.prov[i][j] = interpolated
		}
	}
	return nil
}

// interpolateCol linearly fills the unmeasured cells of column j, marking
// them interpolated.
func interpolateCol(mat *Matrix, j int) error {
	col := make([]float64, mat.Pressures)
	wasNaN := make([]bool, mat.Pressures)
	for i := range col {
		col[i] = mat.Cell(i, j)
		wasNaN[i] = math.IsNaN(col[i])
	}
	if _, err := stats.FillLinear(col); err != nil {
		return err
	}
	for i := range col {
		mat.row(i)[j] = col[i]
		if wasNaN[i] {
			mat.prov[i][j] = interpolated
		}
	}
	return nil
}

// BinaryBruteBatch is the paper's Algorithm 1: for every pressure level,
// anchor the row ends and refine by binary search, interpolating whatever
// the search deems flat. The per-row anchors form one batch, then all
// rows' binary searches advance level by level.
func BinaryBruteBatch(bm BatchMeasurer, pressures, nodes int, eps float64) (Result, error) {
	if eps <= 0 {
		eps = defaultEps
	}
	mat, err := NewMatrix(pressures, nodes)
	if err != nil {
		return Result{}, err
	}
	c := newCounter(bm)
	anchors := make([][2]int, 0, pressures)
	rows := make([]int, 0, pressures)
	for i := 0; i < pressures; i++ {
		anchors = append(anchors, [2]int{i, nodes})
		rows = append(rows, i)
	}
	if err := c.measureAll(anchors); err != nil {
		return Result{}, err
	}
	for _, k := range anchors {
		if err := mat.Set(k[0], k[1], c.cache[k]); err != nil {
			return Result{}, err
		}
	}
	if err := binaryRowsBatch(c, mat, rows, nodes, eps); err != nil {
		return Result{}, err
	}
	for i := 0; i < pressures; i++ {
		if err := interpolateRow(mat, i); err != nil {
			return Result{}, err
		}
	}
	return Result{Matrix: mat, Measured: c.calls, Total: pressures * nodes, Provenance: mat.ProvenanceCounts()}, nil
}

// BinaryOptimizedBatch is the paper's Algorithm 2: profile only the
// top-pressure row by binary search plus the max-nodes column, then infer
// every other cell with the proportional product formula
//
//	T[i][j] = 1 + (T[i][m]-1) * (T[n-1][j]-1) / (T[n-1][m]-1)
//
// exploiting that curve *shapes* barely change across pressure levels.
func BinaryOptimizedBatch(bm BatchMeasurer, pressures, nodes int, eps float64) (Result, error) {
	if eps <= 0 {
		eps = defaultEps
	}
	mat, err := NewMatrix(pressures, nodes)
	if err != nil {
		return Result{}, err
	}
	c := newCounter(bm)
	n := pressures
	// Anchor the two corners of the last column.
	corners := [][2]int{{0, nodes}, {n - 1, nodes}}
	if err := c.measureAll(corners); err != nil {
		return Result{}, err
	}
	for _, k := range corners {
		if err := mat.Set(k[0], k[1], c.cache[k]); err != nil {
			return Result{}, err
		}
	}
	// Top-pressure row by binary search.
	if err := binaryRowsBatch(c, mat, []int{n - 1}, nodes, eps); err != nil {
		return Result{}, err
	}
	if err := interpolateRow(mat, n-1); err != nil {
		return Result{}, err
	}
	// Max-nodes column by binary search over pressures.
	if err := binaryColsBatch(c, mat, []int{nodes}, 0, n-1, eps); err != nil {
		return Result{}, err
	}
	if err := interpolateCol(mat, nodes); err != nil {
		return Result{}, err
	}
	// Infer the interior by the product formula (interpolate_all).
	denom := mat.Cell(n-1, nodes) - 1
	for i := 0; i < n-1; i++ {
		for j := 1; j < nodes; j++ {
			if !math.IsNaN(mat.Cell(i, j)) {
				continue
			}
			var v float64
			if denom <= 0 {
				// Interference has no effect at the strongest setting;
				// the whole matrix is flat.
				v = 1
			} else {
				v = 1 + (mat.Cell(i, nodes)-1)*(mat.Cell(n-1, j)-1)/denom
			}
			if v < 1 {
				v = 1
			}
			if err := mat.setProv(i, j, v, inferred); err != nil {
				return Result{}, err
			}
		}
	}
	return Result{Matrix: mat, Measured: c.calls, Total: pressures * nodes, Provenance: mat.ProvenanceCounts()}, nil
}

// RandomFracBatch is the paper's random-k% baseline: measure a random
// fraction of all settings — always including, per pressure level, the
// max-nodes anchor — and interpolate the rest row-wise. The anchors form
// one batch, then the sampled remainder forms a second. Every sampled cell
// is distinct, so the budget cutoff can be applied up front and the
// measured set and order match a one-setting-at-a-time loop exactly.
func RandomFracBatch(bm BatchMeasurer, pressures, nodes int, frac float64, rng *sim.RNG) (Result, error) {
	if frac <= 0 || frac > 1 {
		return Result{}, errors.New("profile: fraction outside (0,1]")
	}
	if rng == nil {
		return Result{}, errors.New("profile: nil RNG")
	}
	mat, err := NewMatrix(pressures, nodes)
	if err != nil {
		return Result{}, err
	}
	c := newCounter(bm)
	// Mandatory anchors: full-interference per pressure level.
	anchors := make([][2]int, 0, pressures)
	for i := 0; i < pressures; i++ {
		anchors = append(anchors, [2]int{i, nodes})
	}
	if err := c.measureAll(anchors); err != nil {
		return Result{}, err
	}
	for _, k := range anchors {
		if err := mat.Set(k[0], k[1], c.cache[k]); err != nil {
			return Result{}, err
		}
	}
	// Random sample of the remaining settings up to the budget.
	budget := int(math.Round(frac * float64(pressures*nodes)))
	if budget < pressures {
		budget = pressures // anchors already exceed tiny budgets
	}
	var rest [][2]int
	for i := 0; i < pressures; i++ {
		for j := 1; j < nodes; j++ {
			rest = append(rest, [2]int{i, j})
		}
	}
	rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
	take := budget - c.calls
	if take > len(rest) {
		take = len(rest)
	}
	if take > 0 {
		sample := rest[:take]
		if err := c.measureAll(sample); err != nil {
			return Result{}, err
		}
		for _, k := range sample {
			if err := mat.Set(k[0], k[1], c.cache[k]); err != nil {
				return Result{}, err
			}
		}
	}
	for i := 0; i < pressures; i++ {
		if err := interpolateRow(mat, i); err != nil {
			return Result{}, err
		}
	}
	return Result{Matrix: mat, Measured: c.calls, Total: pressures * nodes, Provenance: mat.ProvenanceCounts()}, nil
}
