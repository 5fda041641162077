package placement

import (
	"testing"
)

// downRequest shrinks testRequest to 12 units so it fits the 12 slots
// surviving two crashed hosts.
func downRequest() Request {
	req := testRequest()
	for i := range req.Demands {
		req.Demands[i].Units = 3
	}
	req.DownHosts = []int{2, 5}
	return req
}

func TestSearchRespectsDownHosts(t *testing.T) {
	req := downRequest()
	res, err := Search(req, DefaultConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range req.DownHosts {
		if apps := res.Placement.HostApps(h); len(apps) != 0 {
			t.Fatalf("down host %d holds %v\n%v", h, apps, res.Placement)
		}
	}
	if err := res.Placement.Validate(); err != nil {
		t.Fatalf("invalid placement: %v", err)
	}
	for _, d := range req.Demands {
		if got := res.Placement.UnitsOf(d.App); got != d.Units {
			t.Errorf("app %s has %d units, want %d", d.App, got, d.Units)
		}
	}
}

func TestDownHostsValidation(t *testing.T) {
	req := downRequest()
	for _, h := range []int{-1, 8} {
		req.DownHosts = []int{h}
		if _, err := Search(req, DefaultConfig(1)); err == nil {
			t.Errorf("out-of-range down host %d should fail", h)
		}
	}
	req = testRequest() // 16 units
	req.DownHosts = []int{2, 5}
	if _, err := Search(req, DefaultConfig(1)); err == nil {
		t.Error("16 units on 12 surviving slots should fail")
	}
}

func TestRandomOutcomeRespectsDownHosts(t *testing.T) {
	req := downRequest()
	outs, err := RandomOutcome(req, 20, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 20 {
		t.Fatalf("%d outcomes, want 20", len(outs))
	}
	for _, o := range outs {
		for _, h := range req.DownHosts {
			if apps := o.Placement.HostApps(h); len(apps) != 0 {
				t.Fatalf("down host %d holds %v", h, apps)
			}
		}
	}
}

// Nil and empty DownHosts must behave identically — the zero value keeps
// the fault-free search bit-identical to the pre-fault code path.
func TestEmptyDownHostsDoesNotPerturbSearch(t *testing.T) {
	a := testRequest()
	b := testRequest()
	b.DownHosts = []int{}
	ra, err := Search(a, DefaultConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Search(b, DefaultConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Objective != rb.Objective || ra.Placement.String() != rb.Placement.String() {
		t.Errorf("empty DownHosts perturbed the search:\n%v\nvs\n%v", ra.Placement, rb.Placement)
	}
	if ra.Evaluations != rb.Evaluations {
		t.Errorf("evaluations differ: %d vs %d", ra.Evaluations, rb.Evaluations)
	}
}
