package contention

import (
	"encoding/binary"
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
// validation; ok is false for those that do not. What validation lets
// through stays in, NaN and infinities included.
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
	return occ, validate(DefaultNode(), occ) == nil
}

// sameFloat is bit identity, except that any NaN matches any NaN: which
// NaN an operation returns is not part of its result.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FuzzEquilibriumMatchesReference: Solve and Slowdowns return bit for bit
// what the solver returned before its constants were hoisted and its power
// function specialised (reference_test.go), for 1 to 5 occupants with any
// profiles and core counts validation accepts.
func FuzzEquilibriumMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		occ, ok := decodeOccupants(data)
		if !ok {
			return
		}
		node := DefaultNode()
		want, _, err := refSolve(node, occ)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(node, occ)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name      string
			got, want []float64
		}{
			{"Slowdown", got.Slowdown, want.Slowdown},
			{"CPI", got.CPI, want.CPI},
			{"ShareMB", got.ShareMB, want.ShareMB},
			{"MissGBps", got.MissGBps, want.MissGBps},
			{"BWUtil", []float64{got.BWUtil}, []float64{want.BWUtil}},
		} {
			if !sameFloats(c.got, c.want) {
				t.Fatalf("%+v: %s %v, reference %v", occ, c.name, c.got, c.want)
			}
		}
		for k := 1; k <= len(occ); k++ {
			dst := make([]float64, k)
			if err := Slowdowns(node, occ, dst); err != nil {
				t.Fatal(err)
			}
			if !sameFloats(dst, want.Slowdown[:k]) {
				t.Fatalf("%+v: Slowdowns(%d) %v, reference %v", occ, k, dst, want.Slowdown[:k])
			}
		}
	})
}
