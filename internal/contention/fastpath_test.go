package contention

import (
	"math"
	"testing"
)

// missRatio is the profile's miss ratio at shareMB through its missCurve.
func (p MemProfile) missRatio(shareMB float64) float64 {
	c := curveOf(&p)
	mr, _ := c.at(shareMB)
	return mr
}

// TestMissRatioFastPathsExact pins missRatio's special cases to the general
// formula with math.Pow: the flat-curve branches are optimizations and must
// be bit-identical to evaluating the formula.
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
		{CPICore: 1, APKI: 5, WSSMB: 10, MRMin: 0.2, MRMax: 0.8, Gamma: 1.2, MLP: 1}, // general, Gamma near 1
		{CPICore: 1, APKI: 5, WSSMB: 10, MRMin: 0.2, MRMax: 0.8, Gamma: 0.7, MLP: 1}, // general, Gamma below 1
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
