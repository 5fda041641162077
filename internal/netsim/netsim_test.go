package netsim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	if err := TenGbE().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Network{LatencyUs: -1, BWGbps: 10}).Validate(); err == nil {
		t.Error("negative latency should fail")
	}
	if err := (Network{LatencyUs: 1, BWGbps: 0}).Validate(); err == nil {
		t.Error("zero bandwidth should fail")
	}
}

func TestPointToPoint(t *testing.T) {
	n := Network{LatencyUs: 10, BWGbps: 8} // 1 GB/s
	// 1e9 bytes at 1 GB/s = 1s plus 10us latency.
	got := n.PointToPoint(1e9)
	want := 1.0 + 10e-6
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("PointToPoint = %v, want %v", got, want)
	}
	// Zero and negative sizes cost only latency.
	if got := n.PointToPoint(0); math.Abs(got-10e-6) > 1e-12 {
		t.Errorf("zero-size cost = %v, want latency only", got)
	}
	if n.PointToPoint(-5) != n.PointToPoint(0) {
		t.Error("negative size should clamp to zero")
	}
}

func TestBarrierScalesLogarithmically(t *testing.T) {
	n := TenGbE()
	if n.Barrier(1) != 0 || n.Barrier(0) != 0 {
		t.Error("trivial barrier should be free")
	}
	b2 := n.Barrier(2)
	b8 := n.Barrier(8)
	b64 := n.Barrier(64)
	if b2 <= 0 {
		t.Fatal("barrier over 2 should cost something")
	}
	if math.Abs(b8/b2-3) > 1e-9 {
		t.Errorf("barrier(8)/barrier(2) = %v, want 3 (log ratio)", b8/b2)
	}
	if math.Abs(b64/b2-6) > 1e-9 {
		t.Errorf("barrier(64)/barrier(2) = %v, want 6", b64/b2)
	}
}

func TestAllreduceRingCost(t *testing.T) {
	n := Network{LatencyUs: 0, BWGbps: 8} // pure bandwidth, 1 GB/s
	// Ring allreduce of B bytes over p: 2(p-1) * B/p / rate.
	got := n.Allreduce(4, 4e9)
	want := 6.0 // 2*3 steps * 1e9 bytes / 1GB/s
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("Allreduce = %v, want %v", got, want)
	}
	if n.Allreduce(1, 1e9) != 0 {
		t.Error("single-participant allreduce should be free")
	}
	if n.Allreduce(4, 0) != 0 {
		t.Error("zero-byte allreduce should be free")
	}
}

func TestAllgather(t *testing.T) {
	n := Network{LatencyUs: 0, BWGbps: 8}
	if got, want := n.Allgather(5, 1e9), 4.0; math.Abs(got-want) > 1e-6 {
		t.Errorf("Allgather = %v, want %v", got, want)
	}
	if n.Allgather(1, 1e9) != 0 {
		t.Error("single-participant allgather should be free")
	}
}

func TestShuffle(t *testing.T) {
	n := Network{LatencyUs: 0, BWGbps: 8}
	// 4 nodes, 4e9 bytes per node: each sends 3e9 bytes outbound.
	if got, want := n.Shuffle(4, 4e9), 3.0; math.Abs(got-want) > 1e-6 {
		t.Errorf("Shuffle = %v, want %v", got, want)
	}
	if n.Shuffle(1, 1e9) != 0 {
		t.Error("single-node shuffle should be free")
	}
}

func TestCollectivesGrowWithParticipants(t *testing.T) {
	n := TenGbE()
	for p := 2; p <= 64; p *= 2 {
		if n.Allreduce(p, 1e6) <= n.Allreduce(p/2, 1e6) && p > 2 {
			t.Errorf("allreduce should grow with p at p=%d", p)
		}
	}
}

// Property: all collective costs are non-negative and finite for any
// sane inputs.
func TestCostsNonNegativeProperty(t *testing.T) {
	f := func(pRaw uint8, bytesRaw uint32) bool {
		n := TenGbE()
		p := int(pRaw)
		bytes := float64(bytesRaw)
		costs := []float64{
			n.PointToPoint(bytes),
			n.Barrier(p),
			n.Allreduce(p, bytes),
			n.Allgather(p, bytes),
			n.Shuffle(p, bytes),
		}
		for _, c := range costs {
			if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
