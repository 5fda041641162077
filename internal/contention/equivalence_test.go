package contention

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// Named hosts of the reproduction, used as fuzz seeds and by the residual
// and metamorphic tests. The profiles are copied from the workload table
// and the bubble generator, which import this package.

// milcProf is M.milc's profile.
func milcProf() MemProfile {
	return MemProfile{CPICore: 0.70, APKI: 30, WSSMB: 48, MRMin: 0.15, MRMax: 0.90, Gamma: 1.2, MLP: 3.0}
}

// zeusProf is M.zeus's profile.
func zeusProf() MemProfile {
	return MemProfile{CPICore: 0.85, APKI: 4.6, WSSMB: 32, MRMin: 0.12, MRMax: 0.85, Gamma: 1.2, MLP: 2.0}
}

// probeProf is the bubble scale's probe.
func probeProf() MemProfile {
	return MemProfile{CPICore: 0.8, APKI: 15, WSSMB: 20, MRMin: 0.1, MRMax: 0.9, Gamma: 1.1, MLP: 2}
}

// ec2Host is the host shape that carries almost all of a full
// reproduction's solves: a 4-core M.milc unit and a 4-core bubble on a
// host where an 8-core noisy tenant streams at a continuous pressure.
func ec2Host() []Occupant {
	return []Occupant{
		{Name: "M.milc", Prof: milcProf(), Cores: 4},
		{Name: "bubble", Prof: streamBubble(5), Cores: 4},
		{Name: "tenant", Prof: streamBubble(3.3), Cores: 8},
	}
}

// zeusProbeHost is bubble.Score's probe co-run with M.zeus, as Table 4
// scores it: two 8-core units.
func zeusProbeHost() []Occupant {
	return []Occupant{
		{Name: "probe", Prof: probeProf(), Cores: 8},
		{Name: "M.zeus", Prof: zeusProf(), Cores: 8},
	}
}

// occupantBytes is the fuzz encoding's size of one occupant: a core-count
// byte, seven float64 bit patterns (CPICore, APKI, WSSMB, MRMin, MRMax,
// Gamma, MLP; little-endian) and a byte of blocked-I/O flag and CPU
// fluctuation.
const occupantBytes = 1 + 7*8 + 1

// encodeOccupants is the fuzz encoding of occ.
func encodeOccupants(occ []Occupant) []byte {
	var out []byte
	for _, o := range occ {
		p := o.Prof
		out = append(out, byte(o.Cores-1))
		for _, v := range []float64{p.CPICore, p.APKI, p.WSSMB, p.MRMin, p.MRMax, p.Gamma, p.MLP} {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		flags := byte(math.Round(p.CPUFluct*127)) << 1
		if p.BlockedIO {
			flags |= 1
		}
		out = append(out, flags)
	}
	return out
}

// decodeOccupants decodes 1 to 5 occupants from fuzz bytes (a short last
// occupant is zero-padded). Magnitudes are taken absolute, the two miss
// ratios are ordered and core counts run 1 to 16, so that most inputs pass
// validation; ok is false for those that do not.
func decodeOccupants(data []byte) (occ []Occupant, ok bool) {
	n := (len(data) + occupantBytes - 1) / occupantBytes
	if n < 1 || n > 5 {
		return nil, false
	}
	buf := make([]byte, n*occupantBytes)
	copy(buf, data)
	occ = make([]Occupant, n)
	for i := range occ {
		b := buf[i*occupantBytes : (i+1)*occupantBytes]
		var v [7]float64
		for j := range v {
			v[j] = math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(b[1+8*j:])))
		}
		lo, hi := v[3], v[4]
		if lo > hi {
			lo, hi = hi, lo
		}
		flags := b[occupantBytes-1]
		occ[i] = Occupant{
			Prof: MemProfile{
				CPICore: v[0], APKI: v[1], WSSMB: v[2], MRMin: lo, MRMax: hi, Gamma: v[5], MLP: v[6],
				BlockedIO: flags&1 == 1,
				CPUFluct:  float64(flags>>1) / 127,
			},
			Cores: 1 + int(b[0]%16),
		}
	}
	if validate(DefaultNode(), occ) != nil {
		return nil, false
	}
	return occ, true
}

// inDomain reports whether every profile's magnitudes lie within a few
// orders of the workload table's, where the fuzz checks Solve against the
// bisection reference. Beyond them the reference's brackets span hundreds
// of binary orders, and one reference solve takes up to a second (under a
// tenth of one inside), which starves the fuzz.
func inDomain(occ []Occupant) bool {
	in := func(v, lo, hi float64) bool { return v >= lo && v <= hi }
	for _, o := range occ {
		p := o.Prof
		if !(in(p.CPICore, 0.01, 100) && in(p.Gamma, 0.05, 20) && in(p.MLP, 1, 100) &&
			(p.APKI == 0 || in(p.APKI, 1e-6, 1000)) && (p.WSSMB == 0 || in(p.WSSMB, 1e-3, 1e5))) {
			return false
		}
	}
	return true
}

// nonFinite names the first output of res that is NaN or infinite, or
// returns "" if there is none.
func nonFinite(res Result) string {
	for i := range res.CPI {
		for _, v := range []struct {
			name string
			x    float64
		}{{"CPI", res.CPI[i]}, {"Slowdown", res.Slowdown[i]}, {"ShareMB", res.ShareMB[i]}, {"MissGBps", res.MissGBps[i]}} {
			if !finite(v.x) {
				return fmt.Sprintf("%s[%d] %v", v.name, i, v.x)
			}
		}
	}
	if !finite(res.BWUtil) {
		return fmt.Sprintf("BWUtil %v", res.BWUtil)
	}
	return ""
}

// refTol is how far Solve may be from the bisection reference: relative
// to a CPI, a slowdown or a flow of traffic, relative to the LLC for a
// share, absolute for the utilization. The fast path stops within
// residualEps of a fixed point; settle and the reference are each within
// a few ulps of one.
const refTol = 1e-6

// agrees reports the first way got is further than refTol from want, or
// "" if it is not.
func agrees(node Node, got, want Result) string {
	for i := range want.CPI {
		switch {
		case !within(got.CPI[i], want.CPI[i], refTol):
			return fmt.Sprintf("CPI[%d] %v, reference %v", i, got.CPI[i], want.CPI[i])
		case !within(got.Slowdown[i], want.Slowdown[i], refTol):
			return fmt.Sprintf("Slowdown[%d] %v, reference %v", i, got.Slowdown[i], want.Slowdown[i])
		case !within(got.MissGBps[i], want.MissGBps[i], refTol):
			return fmt.Sprintf("MissGBps[%d] %v, reference %v", i, got.MissGBps[i], want.MissGBps[i])
		case math.Abs(got.ShareMB[i]-want.ShareMB[i]) > refTol*node.LLCMB:
			return fmt.Sprintf("ShareMB[%d] %v, reference %v", i, got.ShareMB[i], want.ShareMB[i])
		}
	}
	if math.Abs(got.BWUtil-want.BWUtil) > refTol {
		return fmt.Sprintf("BWUtil %v, reference %v", got.BWUtil, want.BWUtil)
	}
	return ""
}

// FuzzEquilibriumMatchesReference: for 1 to 5 occupants with any profiles
// and core counts validation accepts, Solve's outputs are finite and
// Slowdowns returns Solve's slowdowns bit for bit; within inDomain, Solve
// is also within refTol of the bisection reference (reference_test.go).
func FuzzEquilibriumMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		occ, ok := decodeOccupants(data)
		if !ok {
			return
		}
		node := DefaultNode()
		got, err := Solve(node, occ)
		if err != nil {
			t.Fatal(err)
		}
		if msg := nonFinite(got); msg != "" {
			t.Fatalf("%+v: %s", occ, msg)
		}
		if inDomain(occ) {
			if msg := agrees(node, got, refSolve(node, occ)); msg != "" {
				t.Fatalf("%+v: %s", occ, msg)
			}
		}
		for k := 1; k <= len(occ); k++ {
			dst := make([]float64, k)
			if err := Slowdowns(node, occ, dst); err != nil {
				t.Fatal(err)
			}
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(got.Slowdown[i]) {
					t.Fatalf("%+v: Slowdowns(%d) %v, Solve %v", occ, k, dst, got.Slowdown[:k])
				}
			}
		}
	})
}
