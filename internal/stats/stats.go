// Package stats provides the small statistical toolkit used throughout the
// interference study: summary statistics, error metrics, linear and bilinear
// interpolation, and the sampling margin-of-error computation the paper uses
// to justify its 60-sample heterogeneity search (Section 3.3).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reducers that require at least one observation.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs. It returns 0 for empty input so it
// can be used in hot loops; callers that must distinguish the empty case
// should check len(xs) themselves or use Summarize.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// Inputs of length < 2 yield 0.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs, or an error for empty input.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs, or an error for empty input.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Summary holds the summary statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P25    float64
	P50    float64
	P75    float64
}

// Summarize computes a Summary of xs. It returns ErrEmpty for empty input.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P25:    Quantile(sorted, 0.25),
		P50:    Quantile(sorted, 0.50),
		P75:    Quantile(sorted, 0.75),
	}, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of an already sorted sample
// using linear interpolation between closest ranks. Empty input yields 0.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// RelErr returns the relative error |predicted-actual|/actual as a fraction.
// A zero actual value yields +Inf unless predicted is also zero.
func RelErr(predicted, actual float64) float64 {
	if actual == 0 {
		if predicted == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(predicted-actual) / math.Abs(actual)
}

// RelErrPct returns the relative error in percent.
func RelErrPct(predicted, actual float64) float64 { return 100 * RelErr(predicted, actual) }

// Lerp linearly interpolates between a and b by t in [0,1]. Values of t
// outside [0,1] extrapolate, which callers occasionally rely on.
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }

// InterpAt evaluates the piecewise-linear function through the points
// (xs[i], ys[i]) at x. The xs must be strictly increasing and of the same
// length as ys (at least 1). Outside the domain, the nearest edge value is
// returned (flat extrapolation), matching how sensitivity curves saturate.
func InterpAt(xs, ys []float64, x float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: xs/ys length mismatch")
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if x <= xs[0] {
		return ys[0], nil
	}
	last := len(xs) - 1
	if x >= xs[last] {
		return ys[last], nil
	}
	// Binary search for the bracketing segment.
	i := sort.SearchFloat64s(xs, x)
	// xs[i-1] < x <= xs[i] here because x > xs[0] and x < xs[last].
	lo, hi := i-1, i
	t := (x - xs[lo]) / (xs[hi] - xs[lo])
	return Lerp(ys[lo], ys[hi], t), nil
}

// FillLinear replaces NaN entries of ys by linear interpolation between the
// nearest non-NaN neighbours, assuming unit-spaced x positions. Leading or
// trailing NaN runs are filled by copying the nearest defined value (flat
// extension). It returns the number of entries filled. If every entry is
// NaN, the slice is left untouched and an error is returned.
func FillLinear(ys []float64) (int, error) {
	n := len(ys)
	defined := make([]int, 0, n)
	for i, y := range ys {
		if !math.IsNaN(y) {
			defined = append(defined, i)
		}
	}
	if len(defined) == 0 {
		return 0, errors.New("stats: no defined points to interpolate from")
	}
	filled := 0
	for i := 0; i < n; i++ {
		if !math.IsNaN(ys[i]) {
			continue
		}
		// Locate neighbours among defined indices.
		k := sort.SearchInts(defined, i)
		switch {
		case k == 0: // before first defined point
			ys[i] = ys[defined[0]]
		case k == len(defined): // after last defined point
			ys[i] = ys[defined[len(defined)-1]]
		default:
			lo, hi := defined[k-1], defined[k]
			t := float64(i-lo) / float64(hi-lo)
			ys[i] = Lerp(ys[lo], ys[hi], t)
		}
		filled++
	}
	return filled, nil
}

// zCritical99 is the standard-normal critical value for a 99% two-sided
// confidence interval, the level the paper quotes for its 60-sample design.
const zCritical99 = 2.576

// MarginOfError99 returns the 99%-confidence margin of error for estimating
// a population mean from a sample of size n with sample standard deviation
// sd, drawn without replacement from a finite population of size popSize.
// It applies the finite-population correction the paper's +/-1.7 figure for
// 60 of 12,870 configurations implies. popSize <= 0 means infinite.
func MarginOfError99(sd float64, n, popSize int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	se := sd / math.Sqrt(float64(n))
	if popSize > 0 && n <= popSize {
		fpc := math.Sqrt(float64(popSize-n) / float64(popSize-1))
		se *= fpc
	}
	return zCritical99 * se
}

// WeightedMean returns the weighted arithmetic mean of xs with weights ws.
// Lengths must match; total weight must be positive.
func WeightedMean(xs, ws []float64) (float64, error) {
	if len(xs) != len(ws) {
		return 0, errors.New("stats: xs/ws length mismatch")
	}
	var sw, sx float64
	for i := range xs {
		sw += ws[i]
		sx += xs[i] * ws[i]
	}
	if sw <= 0 {
		return 0, errors.New("stats: non-positive total weight")
	}
	return sx / sw, nil
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
