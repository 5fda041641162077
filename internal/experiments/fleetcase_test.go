package experiments

import (
	"bytes"
	"os"
	"testing"
)

// TestGoldenFleet pins the fleet scenario's rendered report: the
// template composition, the flat-vs-hierarchical comparison, and the
// cell occupancy are all byte-deterministic at the fixed quick-mode
// seed — the determinism contract of both fleet.Generate and the
// hierarchical search, observed end to end.
func TestGoldenFleet(t *testing.T) { checkGoldenRunner(t, "fleet") }

// TestFleetGoldenDetectsTemplatePerturbation: nudging a single template
// weight reshapes the apportionment and therefore the whole report — the
// golden comparison must notice.
func TestFleetGoldenDetectsTemplatePerturbation(t *testing.T) {
	if *update {
		t.Skip("perturbation check is meaningless while rewriting goldens")
	}
	want, err := os.ReadFile(goldenPath("fleet"))
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update): %v", err)
	}
	spec := fleetSpec()
	spec.Templates[0].Weight += 5
	r, err := quickLab(t).fleetWith(spec)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal([]byte(r.output().Render()), want) {
		t.Error("a one-template weight perturbation went undetected by the golden comparison")
	}
}

// TestFleetRunner checks the scenario's semantics beyond byte equality:
// the runner is reachable by ID, both search arms ran, and the
// hierarchical placement's occupancy sums to the demand.
func TestFleetRunner(t *testing.T) {
	if _, err := RunnerByID("fleet"); err != nil {
		t.Fatalf("fleet runner unreachable: %v", err)
	}
	r, err := quickLab(t).fleet()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range r.arms {
		if a.res.Placement == nil || a.res.Evaluations == 0 {
			t.Errorf("%s search returned no placement or no evaluations", a.name)
		}
	}
	if len(r.occupancy) != fleetCells {
		t.Fatalf("occupancy has %d cells, want %d", len(r.occupancy), fleetCells)
	}
	placed, hosts := 0, 0
	for _, c := range r.occupancy {
		hosts += c.hosts
		placed += c.units
	}
	if hosts != fleetSpec().TotalHosts {
		t.Errorf("occupancy covers %d hosts, want %d", hosts, fleetSpec().TotalHosts)
	}
	req := fleetRequest(fleetSpec(), 2016, 16)
	if want := totalUnits(req.Demands); placed != want {
		t.Errorf("hierarchical placement holds %d units, demands total %d", placed, want)
	}
}
