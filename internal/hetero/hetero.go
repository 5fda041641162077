// Package hetero implements the interference-heterogeneity handling of
// Section 3.3: policies that convert a heterogeneous per-node interference
// vector into a homogeneous (pressure, node-count) point — so that only
// homogeneous sensitivity curves ever need profiling — plus the
// sample-based procedure that selects the best policy per application
// (Fig. 4, Table 2).
package hetero

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Policy is a heterogeneous-to-homogeneous mapping policy.
type Policy int

// The four policies of Section 3.3.
const (
	// NMax keeps only the nodes under the worst pressure and ignores the
	// rest: [5,5,3,2] -> 2 nodes at pressure 5.
	NMax Policy = iota
	// NPlus1Max merges all lesser interfering nodes into one extra node
	// at the worst pressure: [3,2,1,1] -> 2 nodes at pressure 3.
	NPlus1Max
	// allMax assumes the worst pressure propagates to every node:
	// [5,2,2,1] on a 4-node app -> 4 nodes at pressure 5.
	allMax
	// Interpolate uses the average pressure across all nodes applied to
	// every node: [3,5,3,1] -> 4 nodes at pressure 3.
	Interpolate
)

// AllPolicies lists every policy, in the paper's presentation order.
func AllPolicies() []Policy { return []Policy{NMax, NPlus1Max, allMax, Interpolate} }

// String returns the paper's name for the policy.
func (p Policy) String() string {
	switch p {
	case NMax:
		return "N MAX"
	case NPlus1Max:
		return "N+1 MAX"
	case allMax:
		return "ALL MAX"
	case Interpolate:
		return "INTERPOLATE"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// maxPressureEps treats pressures within this of the maximum as "at the
// maximum" when counting top-pressure nodes (scores are continuous).
const maxPressureEps = 1e-9

// Convert maps a heterogeneous pressure vector (entry per node of the
// application; 0 means no interference on that node) to a homogeneous
// (pressure, count) point. A vector with no interference maps to (0, 0).
func (p Policy) Convert(pressures []float64) (pressure, count float64, err error) {
	if len(pressures) == 0 {
		return 0, 0, errors.New("hetero: empty pressure vector")
	}
	var maxP, sum float64
	interfering := 0
	for _, v := range pressures {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, 0, fmt.Errorf("hetero: invalid pressure %v", v)
		}
		if v > 0 {
			interfering++
		}
		if v > maxP {
			maxP = v
		}
		sum += v
	}
	if interfering == 0 {
		return 0, 0, nil
	}
	// Only the two MAX-counting policies need the second pass over the
	// vector; ALL MAX and INTERPOLATE are fully determined by the first.
	switch p {
	case NMax:
		return maxP, float64(countAtMax(pressures, maxP)), nil
	case NPlus1Max:
		c := countAtMax(pressures, maxP)
		if interfering > c {
			c++
		}
		return maxP, float64(c), nil
	case allMax:
		return maxP, float64(len(pressures)), nil
	case Interpolate:
		return sum / float64(len(pressures)), float64(len(pressures)), nil
	default:
		return 0, 0, fmt.Errorf("hetero: unknown policy %d", int(p))
	}
}

// countAtMax counts nodes whose pressure is within maxPressureEps of the
// maximum.
func countAtMax(pressures []float64, maxP float64) int {
	atMax := 0
	for _, v := range pressures {
		if v >= maxP-maxPressureEps {
			atMax++
		}
	}
	return atMax
}

// Predict converts the heterogeneous vector with the policy and evaluates
// the propagation matrix at the homogeneous point.
func (p Policy) Predict(mat *profile.Matrix, pressures []float64) (float64, error) {
	pr, cnt, err := p.Convert(pressures)
	if err != nil {
		return 0, err
	}
	return mat.At(pr, cnt)
}

// BatchMeasurer measures the application's true normalized execution time
// under several heterogeneous pressure vectors, returning one value per
// configuration in order. Implementations may fan the
// measurements out, but must return what measuring each configuration in
// slice order would give.
type BatchMeasurer func(configs [][]float64) ([]float64, error)

// ErrStats summarizes a policy's prediction error over the sampled
// configurations (percent).
type ErrStats struct {
	AvgPct float64
	StdPct float64
	MinPct float64
	MaxPct float64
}

// Selection is the outcome of the policy search for one application.
type Selection struct {
	Best      Policy
	Stats     map[Policy]ErrStats
	Samples   int
	Total     int // size of the heterogeneous configuration space
	BestStats ErrStats
}

// totalConfigs returns the size of the heterogeneous configuration space:
// multisets of `nodes` pressures drawn from {0..maxPressure}, the paper's
// 12,870 for 8 nodes and pressures up to 8.
func totalConfigs(nodes, maxPressure int) int {
	// C(nodes + maxPressure, nodes) computed without overflow for the
	// small arguments used here.
	n := nodes + maxPressure
	k := nodes
	if k > n-k {
		k = n - k
	}
	res := 1
	for i := 1; i <= k; i++ {
		res = res * (n - k + i) / i
	}
	return res
}

// SampleConfig draws one heterogeneous configuration: per-node integer
// pressures uniform over {0..maxPressure}, with at least one interfering
// node (the homogeneous-zero point carries no heterogeneity information).
func SampleConfig(rng *sim.RNG, nodes, maxPressure int) []float64 {
	for {
		cfg := make([]float64, nodes)
		any := false
		for i := range cfg {
			v := float64(rng.Intn(maxPressure + 1))
			cfg[i] = v
			if v > 0 {
				any = true
			}
		}
		if any {
			return cfg
		}
	}
}

// SelectBatch runs the paper's sample-based policy search: draw `samples`
// random heterogeneous configurations, measure the truth for each, compare
// every policy's prediction, and pick the policy with the lowest average
// error. The sampled configurations are draw-independent of the
// measurements, so they are all drawn up front and measured as one batch
// in sample order.
func SelectBatch(mat *profile.Matrix, meas BatchMeasurer, nodes, maxPressure, samples int, rng *sim.RNG) (Selection, error) {
	if mat == nil || meas == nil || rng == nil {
		return Selection{}, errors.New("hetero: nil matrix, measurer, or RNG")
	}
	if nodes <= 0 || maxPressure <= 0 || samples <= 0 {
		return Selection{}, errors.New("hetero: non-positive search parameters")
	}
	configs := make([][]float64, samples)
	var sample sim.RNG // re-targeted per sample: one generator for the whole draw
	for s := 0; s < samples; s++ {
		rng.StreamNInto(&sample, "sample", s)
		configs[s] = SampleConfig(&sample, nodes, maxPressure)
	}
	actuals, err := meas(configs)
	if err != nil {
		return Selection{}, err
	}
	if len(actuals) != samples {
		return Selection{}, fmt.Errorf("hetero: batch measurer returned %d values for %d samples", len(actuals), samples)
	}
	errsByPolicy := map[Policy][]float64{}
	policies := AllPolicies()
	for s := 0; s < samples; s++ {
		cfg, actual := configs[s], actuals[s]
		if actual <= 0 {
			return Selection{}, fmt.Errorf("hetero: non-positive measured time %v", actual)
		}
		for _, p := range policies {
			pred, err := p.Predict(mat, cfg)
			if err != nil {
				return Selection{}, err
			}
			errsByPolicy[p] = append(errsByPolicy[p], stats.RelErrPct(pred, actual))
		}
	}
	sel := Selection{
		Stats:   map[Policy]ErrStats{},
		Samples: samples,
		Total:   totalConfigs(nodes, maxPressure),
	}
	bestAvg := math.Inf(1)
	for _, p := range policies {
		es := errsByPolicy[p]
		mn, _ := stats.Min(es)
		mx, _ := stats.Max(es)
		st := ErrStats{
			AvgPct: stats.Mean(es),
			StdPct: stats.StdDev(es),
			MinPct: mn,
			MaxPct: mx,
		}
		sel.Stats[p] = st
		if st.AvgPct < bestAvg {
			bestAvg = st.AvgPct
			sel.Best = p
			sel.BestStats = st
		}
	}
	return sel, nil
}
