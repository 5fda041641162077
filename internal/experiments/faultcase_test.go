package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestFaultInjectionRunner runs the faults scenario in quick mode and
// checks its acceptance shape: a prediction for every surviving app, a
// tagged source per prediction, and a bounded EC2 validation error, the
// last at quick seeds 1-10 as well.
func TestFaultInjectionRunner(t *testing.T) {
	r, err := quickLab(t).faults()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.place); got != 4 {
		t.Fatalf("placement has %d predictions, want one per surviving app (4)", got)
	}
	var fallbacks uint64
	for _, p := range r.place {
		if p.pred < 1 {
			t.Errorf("app %s predicted %v, want >= 1 (normalized time)", p.app, p.pred)
		}
		// The degraded host inflates the solo baseline (solos run on
		// hosts 0..n-1) while the search steers units away from it, so
		// normalized actuals can dip slightly below 1 under this plan.
		if p.actual < 0.5 {
			t.Errorf("app %s actual %v, implausibly fast", p.app, p.actual)
		}
		if p.src == core.SourceFallback {
			fallbacks++
		}
	}
	if fallbacks > r.fallbacks {
		t.Errorf("%d predictions tagged fallback, but the resilient models counted %d", fallbacks, r.fallbacks)
	}
	checkFaultErrBound(t, r)
	if n := r.output().Notes[0]; !strings.Contains(n, "4 surviving applications received a prediction") {
		t.Errorf("first note misses the surviving-app statement: %q", n)
	}
	// The EC2 bound holds at every quick seed 1-10, not only at the
	// shared lab's.
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			lab, err := NewLab(Config{Seed: seed, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			r, err := lab.faults()
			if err != nil {
				t.Fatal(err)
			}
			checkFaultErrBound(t, r)
		})
	}
}

// checkFaultErrBound requires every application's EC2-with-failures
// validation error to be within faultErrBoundPct.
func checkFaultErrBound(t *testing.T, r *faultsResult) {
	t.Helper()
	if len(r.ec2) == 0 {
		t.Fatal("EC2-with-failures validation is empty")
	}
	for _, p := range r.ec2 {
		if p.errPct > faultErrBoundPct {
			t.Errorf("EC2 validation error for %s is %v%%, beyond any useful bound", p.app, p.errPct)
		}
	}
}

// TestFaultsRunnerRegistered makes the scenario reachable by ID from
// cmd/paperrepro -only faults.
func TestFaultsRunnerRegistered(t *testing.T) {
	if _, err := RunnerByID("faults"); err != nil {
		t.Fatal(err)
	}
}
