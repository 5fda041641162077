package hetero

import (
	"math"
	"testing"
)

// FuzzHeteroPolicies throws arbitrary 4-node pressure vectors at every
// conversion policy. For each: no panics; invalid inputs (negative or
// non-finite pressures) must error; valid inputs must yield a finite
// (pressure, count) with count in [0, nodes], pressure bounded by the
// vector max, and the documented cross-policy ordering (the Interpolate
// mean never exceeds the NMax maximum).
func FuzzHeteroPolicies(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(5.0, 5.0, 0.0, 0.0)
	f.Add(9.0, 1.0, 1.0, 1.0)
	f.Add(2.5, 2.5, 2.5, 2.5)
	f.Add(-1.0, 3.0, 0.0, 2.0)
	f.Add(1e300, 1e-300, 0.0, 7.0)
	f.Fuzz(func(t *testing.T, p0, p1, p2, p3 float64) {
		ps := []float64{p0, p1, p2, p3}
		valid := true
		var maxP float64
		for _, v := range ps {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				valid = false
			}
			if v > maxP {
				maxP = v
			}
		}
		if valid && maxP > math.MaxFloat64/4 {
			// The Interpolate sum of 4 such entries overflows float64;
			// real pressures are single digits, so keep the harness to
			// the representable range instead of asserting on overflow.
			return
		}
		results := map[Policy][2]float64{}
		for _, pol := range AllPolicies() {
			pressure, count, err := pol.Convert(ps)
			if valid != (err == nil) {
				t.Fatalf("%v.Convert(%v): err = %v, want error iff invalid input", pol, ps, err)
			}
			if err != nil {
				continue
			}
			if math.IsNaN(pressure) || math.IsInf(pressure, 0) ||
				math.IsNaN(count) || math.IsInf(count, 0) {
				t.Fatalf("%v.Convert(%v) = (%v, %v), want finite", pol, ps, pressure, count)
			}
			if count < 0 || count > float64(len(ps)) {
				t.Fatalf("%v.Convert(%v) count = %v, want within [0, %d]", pol, ps, count, len(ps))
			}
			// The Interpolate mean accumulates three rounded additions,
			// so allow a few ulps of headroom above the exact maximum.
			if pressure < 0 || pressure > maxP*(1+1e-12) {
				t.Fatalf("%v.Convert(%v) pressure = %v, want within [0, max=%v]", pol, ps, pressure, maxP)
			}
			results[pol] = [2]float64{pressure, count}
		}
		if !valid || maxP == 0 {
			// A no-interference vector maps to (0, 0) under every policy;
			// the ordering checks below only apply to interfering input.
			return
		}
		if interp, nmax := results[Interpolate][0], results[NMax][0]; interp > nmax*(1+1e-12) {
			t.Fatalf("Interpolate pressure %v exceeds NMax pressure %v for %v", interp, nmax, ps)
		}
		if nm, np1 := results[NMax][1], results[NPlus1Max][1]; np1 < nm {
			t.Fatalf("NPlus1Max count %v below NMax count %v for %v", np1, nm, ps)
		}
		if am := results[allMax][1]; am != float64(len(ps)) {
			t.Fatalf("AllMax count = %v, want the full vector length %d", am, len(ps))
		}
	})
}
