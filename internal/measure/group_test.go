package measure

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/workloads"
)

// group co-runs apps across nodes in a batch of its own.
func group(e *Env, apps []workloads.Workload, nodes int) ([]AppOutcome, error) {
	b := e.NewBatch()
	h := b.Group(apps, nodes)
	_ = b.Run() // the handle reports the same error
	return h.Outcomes()
}

// pair co-runs a and c across nodes in a batch of its own and returns a's
// normalized time.
func pair(e *Env, a, c workloads.Workload, nodes int) (float64, error) {
	b := e.NewBatch()
	h := b.Pair(a, c, nodes)
	_ = b.Run() // the handle reports the same error
	return h.Result()
}

func TestRunGroupValidation(t *testing.T) {
	e := newTestEnv(t)
	milc := wl(t, "M.milc")
	if _, err := group(e, nil, 8); err == nil {
		t.Error("empty group should fail")
	}
	if _, err := group(e, []workloads.Workload{milc}, 0); err == nil {
		t.Error("zero nodes should fail")
	}
	if _, err := group(e, []workloads.Workload{milc}, 99); err == nil {
		t.Error("too many nodes should fail")
	}
	// Three 8-core units exceed a 16-core host.
	three := []workloads.Workload{milc, wl(t, "C.libq"), wl(t, "H.KM")}
	if _, err := group(e, three, 8); err == nil {
		t.Error("core oversubscription should fail")
	}
}

func TestRunGroupMatchesRunPair(t *testing.T) {
	e := newTestEnv(t)
	a := wl(t, "M.milc")
	b := wl(t, "C.libq")
	pr, err := pair(e, a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := group(e, []workloads.Workload{a, b}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pr != outs[0].Normalized {
		t.Errorf("pair normalizes M.milc to %v, its group co-run to %v", pr, outs[0].Normalized)
	}
	if outs[1].Normalized < 1 {
		t.Errorf("C.libq normalized below 1: %v", outs[1].Normalized)
	}
	if outs[0].Time <= 0 || outs[1].Time <= 0 {
		t.Error("non-positive times")
	}
}

func TestRunGroupThreeWay(t *testing.T) {
	e := newTestEnv(t)
	e.UnitCores = 4 // three 4-core units fit with headroom
	three := []workloads.Workload{wl(t, "M.milc"), wl(t, "C.libq"), wl(t, "H.KM")}
	outs, err := group(e, three, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	for i, o := range outs {
		if o.Time <= 0 || o.Solo <= 0 || o.Normalized < 0.95 {
			t.Errorf("group member %d outcome broken: %+v", i, o)
		}
		if o.Nodes != 8 {
			t.Errorf("member %d nodes = %d", i, o.Nodes)
		}
	}
	// Two heavy co-runners must hurt milc more than one.
	pairEnv := newTestEnv(t)
	pairEnv.UnitCores = 4
	two, err := group(pairEnv, []workloads.Workload{wl(t, "M.milc"), wl(t, "H.KM")}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Normalized <= two[0].Normalized {
		t.Errorf("adding libq should hurt milc: three-way %v vs pair %v",
			outs[0].Normalized, two[0].Normalized)
	}
}

// TestRunPlacementMatchesGroup pins the seam between the placement and
// co-run layouts: a placement holding one unit of each of two applications
// on each of hosts 0..n-1 is their group co-run across n nodes, outcome by
// outcome and bit for bit, on a cluster with degraded hosts, with and
// without background tenants.
func TestRunPlacementMatchesGroup(t *testing.T) {
	// A placement measures its applications in name order, a group in
	// submission order; H.KM's master node also generates less traffic
	// than its slaves, so node 0 must get the master's profile in both.
	a, c := wl(t, "H.KM"), wl(t, "M.milc")
	apps := []workloads.Workload{a, c}
	reg := map[string]workloads.Workload{a.Name: a, c.Name: c}
	for _, background := range []bool{false, true} {
		env := func() *Env {
			e := newBatchEnv(t, 1, background)
			e.HostDegrade = func(h int) float64 { return 1 + 0.5*float64(h%2) }
			return e
		}
		for _, n := range []int{1, 4, 8} {
			p, err := cluster.NewPlacement(8, 2)
			if err != nil {
				t.Fatal(err)
			}
			for h := 0; h < n; h++ {
				for s, w := range apps {
					if err := p.Set(h, s, w.Name); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, err := env().RunPlacement(p, reg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := group(env(), apps, n)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range apps {
				if got[w.Name] != want[i] {
					t.Errorf("background %t, %d hosts, %s: placement %+v, group %+v",
						background, n, w.Name, got[w.Name], want[i])
				}
			}
		}
	}
}
