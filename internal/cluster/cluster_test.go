package cluster

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterValidateRejectsBad(t *testing.T) {
	c := Default()
	c.NumHosts = 0
	if err := c.Validate(); err == nil {
		t.Error("zero hosts should fail")
	}
	c = Default()
	c.HostSpec.Cores = 0
	if err := c.Validate(); err == nil {
		t.Error("bad host spec should fail")
	}
	c = Default()
	c.NetBWGbps = 0
	if err := c.Validate(); err == nil {
		t.Error("zero net bandwidth should fail")
	}
	c = Default()
	c.NetLatencyUs = -1
	if err := c.Validate(); err == nil {
		t.Error("negative latency should fail")
	}
}

func TestNewPlacementBounds(t *testing.T) {
	if _, err := NewPlacement(0, 2); err == nil {
		t.Error("zero hosts should fail")
	}
	if _, err := NewPlacement(2, 0); err == nil {
		t.Error("zero slots should fail")
	}
	p, err := NewPlacement(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Set(2, 0, "a"); err == nil {
		t.Error("out-of-range host should fail")
	}
	if err := p.Set(0, 2, "a"); err == nil {
		t.Error("out-of-range slot should fail")
	}
	if err := p.Set(-1, 0, "a"); err == nil {
		t.Error("negative host should fail")
	}
}

func mustPlacement(t *testing.T, hosts, slots int, entries map[[2]int]string) *Placement {
	t.Helper()
	p, err := NewPlacement(hosts, slots)
	if err != nil {
		t.Fatal(err)
	}
	for pos, app := range entries {
		if err := p.Set(pos[0], pos[1], app); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestPlacementQueries(t *testing.T) {
	p := mustPlacement(t, 3, 2, map[[2]int]string{
		{0, 0}: "A", {0, 1}: "B",
		{1, 0}: "A", {1, 1}: "A",
		{2, 0}: "B",
	})
	if got := p.Apps(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("Apps = %v", got)
	}
	if got := p.UnitsOf("A"); got != 3 {
		t.Errorf("UnitsOf(A) = %d, want 3", got)
	}
	if got := p.UnitsOf("missing"); got != 0 {
		t.Errorf("UnitsOf(missing) = %d, want 0", got)
	}
	if got := p.HostApps(2); len(got) != 1 || got[0] != "B" {
		t.Errorf("HostApps(2) = %v", got)
	}
}

func TestValidateColocationLimit(t *testing.T) {
	ok := mustPlacement(t, 1, 2, map[[2]int]string{{0, 0}: "A", {0, 1}: "B"})
	if err := ok.Validate(); err != nil {
		t.Errorf("two apps per host should be valid: %v", err)
	}
	bad := mustPlacement(t, 1, 3, map[[2]int]string{{0, 0}: "A", {0, 1}: "B", {0, 2}: "C"})
	if err := bad.Validate(); err == nil {
		t.Error("three apps per host should be invalid")
	}
}

func TestSwapAndClone(t *testing.T) {
	p := mustPlacement(t, 2, 2, map[[2]int]string{{0, 0}: "A", {1, 1}: "B"})
	c := p.Clone()
	if err := p.Swap(0, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if p.At(0, 0) != "B" || p.At(1, 1) != "A" {
		t.Errorf("swap failed: %v", p)
	}
	if c.At(0, 0) != "A" || c.At(1, 1) != "B" {
		t.Error("clone should be unaffected by swap")
	}
	if err := p.Swap(0, 0, 9, 0); err == nil {
		t.Error("out-of-range swap should fail")
	}
}

func TestStringRendering(t *testing.T) {
	p := mustPlacement(t, 2, 2, map[[2]int]string{{0, 0}: "A"})
	s := p.String()
	if !strings.Contains(s, "host0[A -]") || !strings.Contains(s, "host1[- -]") {
		t.Errorf("String = %q", s)
	}
}

func TestRandomValidProducesValidPlacements(t *testing.T) {
	rng := sim.NewRNG(1)
	demands := []Demand{{"A", 4}, {"B", 4}, {"C", 4}, {"D", 4}}
	for i := 0; i < 50; i++ {
		p, err := RandomValid(rng, 8, 2, demands, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("invalid random placement: %v\n%v", err, p)
		}
		for _, d := range demands {
			if got := p.UnitsOf(d.App); got != d.Units {
				t.Fatalf("app %s has %d units, want %d", d.App, got, d.Units)
			}
		}
	}
}

func TestRandomValidRejectsOverCapacity(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := RandomValid(rng, 1, 2, []Demand{{"A", 3}}, 0); err == nil {
		t.Error("over-capacity demand should fail")
	}
	if _, err := RandomValid(rng, 1, 2, []Demand{{"", 1}}, 0); err == nil {
		t.Error("empty app name should fail")
	}
	if _, err := RandomValid(rng, 1, 2, []Demand{{"A", 0}}, 0); err == nil {
		t.Error("zero units should fail")
	}
}

func TestRandomValidDeterministicPerSeed(t *testing.T) {
	demands := []Demand{{"A", 4}, {"B", 4}, {"C", 4}, {"D", 4}}
	p1, err := RandomValid(sim.NewRNG(42), 8, 2, demands, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := RandomValid(sim.NewRNG(42), 8, 2, demands, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p1.String() != p2.String() {
		t.Error("same seed should yield same placement")
	}
}

func TestPackedPlacement(t *testing.T) {
	p, err := PackedPlacement(4, 2, []Demand{{"A", 4}, {"B", 4}})
	if err != nil {
		t.Fatal(err)
	}
	if p.At(0, 0) != "A" || p.At(1, 1) != "A" || p.At(2, 0) != "B" || p.At(3, 1) != "B" {
		t.Errorf("unexpected packing: %v", p)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("packed placement should be valid: %v", err)
	}
	if _, err := PackedPlacement(1, 1, []Demand{{"A", 3}}); err == nil {
		t.Error("over-capacity packing should fail")
	}
}

// Property: RandomValid conserves unit counts and never co-locates more
// than two distinct apps.
func TestRandomValidProperty(t *testing.T) {
	f := func(seed int64, nAppsRaw uint8) bool {
		nApps := int(nAppsRaw%4) + 1
		demands := make([]Demand, nApps)
		names := []string{"A", "B", "C", "D"}
		for i := range demands {
			demands[i] = Demand{names[i], 4}
		}
		p, err := RandomValid(sim.NewRNG(seed), 8, 2, demands, 0)
		if err != nil {
			return false
		}
		if p.Validate() != nil {
			return false
		}
		for _, d := range demands {
			if p.UnitsOf(d.App) != d.Units {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
