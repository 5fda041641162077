package contention

import (
	"math"
	"testing"
)

// TestMissRatioFastPathsExact pins missRatio's special cases and its
// fixed-exponent power to the general formula with math.Pow: the flat-curve
// and gamma==1 branches and fixedPow are optimizations and must be
// bit-identical to evaluating the formula.
func TestMissRatioFastPathsExact(t *testing.T) {
	formula := func(p MemProfile, shareMB float64) float64 {
		cover := shareMB / p.WSSMB
		if cover > 1 {
			cover = 1
		}
		if cover < 0 {
			cover = 0
		}
		return p.MRMax - (p.MRMax-p.MRMin)*math.Pow(cover, p.Gamma)
	}
	profiles := []MemProfile{
		{CPICore: 1, APKI: 5, WSSMB: 10, MRMin: 0.4, MRMax: 0.4, Gamma: 3, MLP: 1},   // flat
		{CPICore: 1, APKI: 5, WSSMB: 10, MRMin: 0.2, MRMax: 0.8, Gamma: 1, MLP: 1},   // linear
		{CPICore: 1, APKI: 5, WSSMB: 10, MRMin: 0.2, MRMax: 0.8, Gamma: 2.5, MLP: 1}, // general
		{CPICore: 1, APKI: 5, WSSMB: 10, MRMin: 0.2, MRMax: 0.8, Gamma: 1.2, MLP: 1}, // yi == 1
		{CPICore: 1, APKI: 5, WSSMB: 10, MRMin: 0.2, MRMax: 0.8, Gamma: 0.7, MLP: 1}, // yf > 0.5
	}
	for _, p := range profiles {
		for _, share := range []float64{0, 1.7, 5, 10, 25} {
			got := p.missRatio(share)
			want := formula(p, share)
			if got != want {
				t.Errorf("profile %+v share %v: missRatio %v != formula %v", p, share, got, want)
			}
		}
	}

	// fixedPow against math.Pow: exponents across (0, 4) — math.Pow's own
	// special cases (0.5, 1), the other integers, fractional parts below,
	// at and above 0.5 and the committed Gammas — at bases spanning the
	// near-one replay's 0x1p-600 guard, 0 and 1, subnormals and a
	// deterministic spread over (0, 1), plus the clamp never sends
	// (negative, above 1, infinite, NaN).
	exps := []float64{0.5, 1, 2, 3, 0.25, 0.7, 1.1, 1.2, 1.3, 1.5, 1.75, 2.5, 2.6, 3.3, 3.99, 1e-9,
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), math.Nextafter(1, 0), math.Nextafter(1, 2)}
	xs := []float64{0, 1, 0.5, 0x1p-600, math.Nextafter(0x1p-600, 0), math.Nextafter(0x1p-600, 1), 0x1p-601,
		0x1p-599, 0x1p-700, 0x1p-1000, 0x1p-1022, 5e-324, 3e-310, math.Nextafter(1, 0), 1e-300,
		-0.5, math.Copysign(0, -1), 2, math.Inf(1), math.NaN()}
	u := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 200; i++ {
		u = u*6364136223846793005 + 1442695040888963407
		exps = append(exps, 4*float64(u>>11)*0x1p-53)
		u = u*6364136223846793005 + 1442695040888963407
		xs = append(xs, float64(u>>11)*0x1p-53, math.Ldexp(float64(u>>11)*0x1p-53, -int(u%1100)))
	}
	for _, y := range exps {
		f := newFixedPow(y)
		for _, x := range xs {
			if got, want := f.of(x), math.Pow(x, y); !sameFloat(got, want) {
				t.Errorf("fixedPow(%v).of(%v) = %v (%#x), math.Pow %v (%#x)",
					y, x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestSolveDeterministicAcrossCalls: Solve and soloCPI memoize internally;
// repeated calls with equal inputs must return bit-identical results.
func TestSolveDeterministicAcrossCalls(t *testing.T) {
	node := DefaultNode()
	occ := []Occupant{
		{Name: "a", Prof: MemProfile{CPICore: 0.9, APKI: 8, WSSMB: 12, MRMin: 0.25, MRMax: 0.7, Gamma: 2, MLP: 2}, Cores: 8},
		{Name: "b", Prof: MemProfile{CPICore: 1.2, APKI: 4, WSSMB: 6, MRMin: 0.3, MRMax: 0.6, Gamma: 1, MLP: 1.5}, Cores: 4},
	}
	want, err := Solve(node, occ)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		got, err := Solve(node, occ)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Slowdown {
			if got.Slowdown[i] != want.Slowdown[i] || got.CPI[i] != want.CPI[i] {
				t.Fatalf("rep %d occupant %d: slowdown %v/%v cpi %v/%v",
					rep, i, got.Slowdown[i], want.Slowdown[i], got.CPI[i], want.CPI[i])
			}
		}
	}
	for rep := 0; rep < 3; rep++ {
		if v1, v2 := soloCPI(node, &occ[0]), soloCPI(node, &occ[0]); v1 != v2 {
			t.Fatalf("soloCPI memo not deterministic: %v vs %v", v1, v2)
		}
	}
}
