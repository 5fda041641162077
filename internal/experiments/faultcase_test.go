package experiments

import (
	"strings"
	"testing"
)

// TestFaultInjectionRunner runs the faults scenario in quick mode and
// checks its acceptance shape: a prediction for every surviving app, a
// tagged source per prediction, and a bounded EC2 validation error.
func TestFaultInjectionRunner(t *testing.T) {
	lab := quickLab(t)
	out, err := lab.FaultInjection()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) != 2 {
		t.Fatalf("%d tables, want 2", len(out.Tables))
	}
	place := out.Tables[0]
	if got := place.Rows(); got != 4 {
		t.Fatalf("placement table has %d rows, want one per surviving app (4)", got)
	}
	sources := map[string]int{}
	for row := 0; row < place.Rows(); row++ {
		app, err := place.Cell(row, 0)
		if err != nil {
			t.Fatal(err)
		}
		if pred := cellFloat(t, place, row, 2); pred < 1 {
			t.Errorf("app %s predicted %v, want >= 1 (normalized time)", app, pred)
		}
		// The degraded host inflates the solo baseline (solos run on
		// hosts 0..n-1) while the search steers units away from it, so
		// normalized actuals can dip slightly below 1 under this plan.
		if actual := cellFloat(t, place, row, 4); actual < 0.5 {
			t.Errorf("app %s actual %v, implausibly fast", app, actual)
		}
		src, err := place.Cell(row, 3)
		if err != nil {
			t.Fatal(err)
		}
		sources[src]++
	}
	if sources["primary"]+sources["fallback"] != 4 {
		t.Errorf("sources = %v, want 4 tagged predictions", sources)
	}

	ec2Tab := out.Tables[1]
	if ec2Tab.Rows() == 0 {
		t.Fatal("EC2-with-failures table is empty")
	}
	for row := 0; row < ec2Tab.Rows(); row++ {
		if e := cellFloat(t, ec2Tab, row, 4); e > faultErrBoundPct {
			app, _ := ec2Tab.Cell(row, 0)
			t.Errorf("EC2 validation error for %s is %v%%, beyond any useful bound", app, e)
		}
	}
	var sawSurvivors bool
	for _, n := range out.Notes {
		if strings.Contains(n, "surviving applications received a prediction") {
			sawSurvivors = true
		}
	}
	if !sawSurvivors {
		t.Errorf("notes missing the surviving-app statement: %v", out.Notes)
	}
}

// TestFaultsRunnerRegistered makes the scenario reachable by ID from
// cmd/paperrepro -only faults.
func TestFaultsRunnerRegistered(t *testing.T) {
	if _, err := RunnerByID("faults"); err != nil {
		t.Fatal(err)
	}
}
