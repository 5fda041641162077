package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// harness reports it (choosing-metrics: "the highest percentile that has
// at least ten samples beyond it").
const minBeyond = 10

// tailCandidates are the percentiles a tail metric may fall back through,
// highest first. The median is always reportable.
var tailCandidates = []float64{99, 95, 90, 50}

// supportedPercentile returns the highest candidate percentile not above
// want that n samples support: at least minBeyond of them lie beyond it.
// The median is the floor whatever n is.
func supportedPercentile(n int, want float64) float64 {
	for _, p := range tailCandidates {
		if p > want {
			continue
		}
		if p == 50 || beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// beyond counts the samples strictly above the nearest-rank percentile p
// of n samples.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank index of percentile p among n sorted
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted (ascending,
// non-empty).
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// sortedCopy returns v sorted ascending without disturbing v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle of v (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of v; 0 for an empty slice.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the benchmark driver applies to the
// ten values of each metric. v needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
