package contention

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Metamorphic properties of the solver: relations between the results of
// related inputs that hold whatever the exact numbers are. Where a
// property reorders a floating-point sum, its tolerance is stated.

// genHost is a random valid host: 1 to 4 occupants of 1 to 4 cores each
// on the default node, with profiles drawn across the ranges the workload
// table and the bubble use — flat curves (WSSMB 0 or MRMin == MRMax) and
// linear ones (Gamma 1) included.
type genHost struct{ occ []Occupant }

func (genHost) Generate(r *rand.Rand, _ int) reflect.Value {
	occ := make([]Occupant, 1+r.Intn(4))
	for i := range occ {
		occ[i] = Occupant{Prof: genProfile(r), Cores: 1 + r.Intn(4)}
	}
	return reflect.ValueOf(genHost{occ})
}

func genProfile(r *rand.Rand) MemProfile {
	p := MemProfile{
		CPICore:   0.3 + 1.7*r.Float64(),
		APKI:      50 * r.Float64(),
		WSSMB:     300 * r.Float64(),
		MRMin:     r.Float64(),
		Gamma:     0.5 + 2.5*r.Float64(),
		MLP:       1 + 7*r.Float64(),
		BlockedIO: r.Intn(4) == 0,
		CPUFluct:  r.Float64(),
	}
	p.MRMax = p.MRMin + (1-p.MRMin)*r.Float64()
	switch r.Intn(6) {
	case 0:
		p.WSSMB = 0
	case 1:
		p.MRMax = p.MRMin
	case 2:
		p.Gamma = 1
	}
	return p
}

// quickConfig is every property's sample: fixed seed, so a failure
// reproduces.
func quickConfig() *quick.Config {
	return &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}
}

func mustSolve(t *testing.T, occ []Occupant) Result {
	t.Helper()
	res, err := Solve(DefaultNode(), occ)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// within reports whether got is within rel of want, relatively.
func within(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Abs(want)
}

// permTol bounds the relative change of a slowdown when only the order of
// the occupants changes. That reorders the utilization, miss and Dom0
// pressure sums, which moves their last bits; the damped iteration carries
// such a difference without growing it.
const permTol = 1e-9

// Slowdowns are invariant under occupant permutation, to permTol.
func TestSlowdownsPermutationInvariant(t *testing.T) {
	f := func(h genHost, seed int64) bool {
		perm := rand.New(rand.NewSource(seed)).Perm(len(h.occ))
		moved := make([]Occupant, len(h.occ))
		for i, j := range perm {
			moved[i] = h.occ[j]
		}
		base, got := mustSolve(t, h.occ), mustSolve(t, moved)
		for i, j := range perm {
			if !within(got.Slowdown[i], base.Slowdown[j], permTol) {
				t.Logf("%+v: occupant %d slowdown %v, %v after permutation %v",
					h.occ, j, base.Slowdown[j], got.Slowdown[i], perm)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Error(err)
	}
}

// monoTol is how far a slowdown may fall when an occupant joins or a
// co-runner's APKI rises: the new input changes every sum, so a slowdown
// that does not move may still change in its last bits.
const monoTol = 1e-12

// Adding an occupant never lowers an existing occupant's slowdown.
func TestAddingOccupantNeverLowersSlowdown(t *testing.T) {
	f := func(h genHost, extra genHost) bool {
		joined := append(append([]Occupant(nil), h.occ...), extra.occ[0])
		if validate(DefaultNode(), joined) != nil {
			return true // no room on the node
		}
		base, got := mustSolve(t, h.occ), mustSolve(t, joined)
		for i := range h.occ {
			if got.Slowdown[i] < base.Slowdown[i]*(1-monoTol) {
				t.Logf("%+v joined by %+v: occupant %d slowdown %v fell to %v",
					h.occ, extra.occ[0], i, base.Slowdown[i], got.Slowdown[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Error(err)
	}
}

// Raising one occupant's APKI never lowers another occupant's slowdown.
func TestRaisingCoRunnerAPKINeverLowersSlowdown(t *testing.T) {
	f := func(h genHost, which uint8, factor uint8) bool {
		if len(h.occ) < 2 {
			return true
		}
		k := int(which) % len(h.occ)
		raised := raiseAPKI(h.occ, k, factor)
		base, got := mustSolve(t, h.occ), mustSolve(t, raised)
		for i := range h.occ {
			if i != k && got.Slowdown[i] < base.Slowdown[i]*(1-monoTol) {
				t.Logf("%+v, occupant %d's APKI to %v: occupant %d slowdown %v fell to %v",
					h.occ, k, raised[k].Prof.APKI, i, base.Slowdown[i], got.Slowdown[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Error(err)
	}
}

// raiseAPKI returns occ with occupant k's APKI raised by (1+factor/64) and
// 0.5 more, so that a zero APKI rises too.
func raiseAPKI(occ []Occupant, k int, factor uint8) []Occupant {
	raised := append([]Occupant(nil), occ...)
	raised[k].Prof.APKI = occ[k].Prof.APKI*(1+float64(factor)/64) + 0.5
	return raised
}

// Scaling the LLC and every working set by the same power of two leaves
// every miss ratio unchanged, exactly: each share is scaled by that power
// of two without rounding, so every cover — share over working set — and
// everything computed from it keeps its bits. The CPIs, slowdowns and
// bandwidth therefore match bit for bit, and the shares scale exactly.
func TestScalingCacheAndWorkingSetsKeepsMissRatios(t *testing.T) {
	f := func(h genHost, e int8) bool {
		scale := math.Ldexp(1, int(e)%8)
		node := DefaultNode()
		scaledNode := node
		scaledNode.LLCMB *= scale
		scaled := append([]Occupant(nil), h.occ...)
		for i := range scaled {
			scaled[i].Prof.WSSMB *= scale
		}
		base := mustSolve(t, h.occ)
		got, err := Solve(scaledNode, scaled)
		if err != nil {
			t.Fatal(err)
		}
		for i := range h.occ {
			mr, scaledMR := h.occ[i].Prof.missRatio(base.ShareMB[i]), scaled[i].Prof.missRatio(got.ShareMB[i])
			if mr != scaledMR || got.ShareMB[i] != base.ShareMB[i]*scale ||
				got.CPI[i] != base.CPI[i] || got.Slowdown[i] != base.Slowdown[i] || got.BWUtil != base.BWUtil {
				t.Logf("%+v scaled by %v: occupant %d miss ratio %v -> %v, share %v -> %v, slowdown %v -> %v",
					h.occ, scale, i, mr, scaledMR, base.ShareMB[i], got.ShareMB[i], base.Slowdown[i], got.Slowdown[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Error(err)
	}
}
