package cluster

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRandomValidDownAvoidsDownHosts(t *testing.T) {
	rng := sim.NewRNG(3)
	demands := []Demand{{"A", 3}, {"B", 3}, {"C", 3}, {"D", 3}}
	down := make([]bool, 8)
	down[0], down[7] = true, true
	for i := 0; i < 50; i++ {
		p, err := randomValid(rng, 8, 2, 0, demands, down)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("invalid placement: %v\n%v", err, p)
		}
		for h, isDown := range down {
			if apps := p.HostApps(h); isDown && len(apps) != 0 {
				t.Fatalf("down host %d holds %v", h, apps)
			}
		}
		for _, d := range demands {
			if got := p.UnitsOf(d.App); got != d.Units {
				t.Fatalf("app %s has %d units, want %d", d.App, got, d.Units)
			}
		}
	}
}

func TestRandomValidDownSurvivingCapacity(t *testing.T) {
	// 8 hosts x 2 slots = 16, minus 2 down hosts = 12 surviving slots.
	demands := []Demand{{"A", 7}, {"B", 6}}
	down := make([]bool, 8)
	down[2], down[5] = true, true
	_, err := randomValid(sim.NewRNG(1), 8, 2, 0, demands, down)
	if err == nil {
		t.Fatal("13 units on 12 surviving slots should fail")
	}
	if !strings.Contains(err.Error(), "surviving") {
		t.Errorf("error should mention surviving slots, got: %v", err)
	}
	// Same demand fits once only one host is down.
	down[5] = false
	if _, err := randomValid(sim.NewRNG(1), 8, 2, 0, demands, down); err != nil {
		t.Errorf("13 units on 14 surviving slots should fit: %v", err)
	}
}

// An empty down set must not perturb the draw sequence: the fault-free
// trajectory of every seeded search stays bit-identical to the pre-fault
// code path.
func TestRandomValidDownEmptyMatchesRandomValid(t *testing.T) {
	demands := []Demand{{"A", 4}, {"B", 4}, {"C", 4}, {"D", 4}}
	p1, err := randomValid(sim.NewRNG(42), 8, 2, 0, demands, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := randomValid(sim.NewRNG(42), 8, 2, 0, demands, make([]bool, 8))
	if err != nil {
		t.Fatal(err)
	}
	if p1.String() != p2.String() {
		t.Errorf("empty down set changed the placement:\n%v\nvs\n%v", p1, p2)
	}
}

// TestSampleCellsRetryPath: under one app per host most permutations
// break the rule, so some seeds need more than one try — a single-try
// sample of the same stream fails where the default budget succeeds —
// and a rule no permutation can meet exhausts the budget with an error.
func TestSampleCellsRetryPath(t *testing.T) {
	demands := []Demand{{"A", 2}, {"B", 2}, {"C", 2}, {"D", 2}}
	down := make([]bool, 16)
	down[3] = true
	retried := false
	for seed := int64(1); seed <= 40; seed++ {
		p, err := randomValid(sim.NewRNG(seed), 16, 2, 1, demands, down)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cells, perm := make([]int32, 32), make([]int32, 32)
		units := []int32{0, 0, 1, 1, 2, 2, 3, 3}
		if SampleCells(sim.NewRNG(seed), cells, perm, 2, 1, units, down, 1) != nil {
			retried = true
		}
	}
	if !retried {
		t.Error("no seed needed a retry")
	}
	cells, perm := make([]int32, 2), make([]int32, 2)
	err := SampleCells(sim.NewRNG(1), cells, perm, 2, 1, []int32{0, 1}, nil, 5)
	if err == nil || !strings.Contains(err.Error(), "could not sample") {
		t.Errorf("two apps on one host under limit 1: err = %v, want the budget exhausted", err)
	}
}
