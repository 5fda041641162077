package fault

import (
	"math"
	"sort"
	"testing"
)

// FuzzLoadPlan feeds arbitrary bytes to the -faults plan parser. A plan
// either fails to load (bad JSON, a key outside the schema, a failed
// validation) or builds an injector that stays inside the
// plan's own vocabulary at every round: the down hosts are hosts the plan
// crashes, sorted and distinct; every named host answers a finite slowdown
// factor of at least 1; nothing panics, whatever the host ids, rounds,
// factors and rates are.
func FuzzLoadPlan(f *testing.F) {
	for _, seed := range []string{
		`{"seed":1,"faults":[{"kind":"node-crash","host":2},{"kind":"node-crash","host":5,"round":3},{"kind":"profile-cell-loss","fraction":0.2}]}`,
		`{"seed":-7,"faults":[{"kind":"node-degrade","host":9223372036854775807,"factor":1.0000001,"round":9223372036854775807}]}`,
		`{"faults":[{"kind":"node-degrade","host":0,"factor":1e308},{"kind":"node-degrade","host":0,"factor":2,"at":0.5}]}`,
		`{"faults":[{"kind":"profiling-failure","rate":1},{"kind":"profiling-failure","rate":1e-300}]}`,
		`{"faults":[{"kind":"node-crash","host":-1}]}`,
		`{"faults":[{"kind":"node-crash","host":1,"round":-1}]}`,
		`{"faults":[{"kind":"meteor"}]}`,
		`{"faults":[{"kind":3}]}`,
		`{"seed":1,"faults":[]}`,
		`[`,
		// Keys outside the schema: a simulated-time activation the
		// injector has no way to fire, and a misspelling.
		`{"seed":1,"faults":[{"kind":"node-crash","host":3,"at":120.5}]}`,
		`{"seed":1,"faults":[{"kind":"node-degrade","host":1,"factr":1.5}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := parsePlan(data)
		if err != nil {
			return
		}
		inj, err := New(plan, nil)
		if err != nil {
			t.Fatalf("a validated plan built no injector: %v", err)
		}
		crashes := map[int]bool{}
		rounds := []int{0, 1, math.MaxInt}
		for _, ft := range plan.Faults {
			if ft.Kind == NodeCrash {
				crashes[ft.Host] = true
			}
			rounds = append(rounds, ft.Round)
		}
		sort.Ints(rounds) // Activate is monotonic in round
		if plan.MaxHost() < -1 {
			t.Fatalf("MaxHost = %d", plan.MaxHost())
		}
		for _, round := range rounds {
			inj.Activate(round)
			downs := inj.DownHosts()
			for i, h := range downs {
				if !crashes[h] || h > plan.MaxHost() || !inj.IsDown(h) {
					t.Fatalf("round %d: down host %d is not one the plan crashes (%v)", round, h, downs)
				}
				if i > 0 && downs[i-1] >= h {
					t.Fatalf("round %d: down hosts %v not sorted and distinct", round, downs)
				}
			}
			for _, ft := range plan.Faults {
				if g := inj.DegradeFactor(ft.Host); !(g >= 1) || math.IsInf(g, 0) {
					t.Fatalf("round %d: host %d degrade factor %v", round, ft.Host, g)
				}
				if ft.Kind == NodeCrash && ft.Round <= round && !inj.IsDown(ft.Host) {
					t.Fatalf("round %d: host %d crashed at round %d and is not down", round, ft.Host, ft.Round)
				}
			}
			if l := inj.CellLossFraction(); l < 0 || l > 1 {
				t.Fatalf("round %d: cell-loss fraction %v", round, l)
			}
			if err := inj.FailureHook("fuzz"); err != nil {
				if _, ok := err.(*TransientError); !ok {
					t.Fatalf("failure hook returned %T", err)
				}
			}
		}
		var fired uint64
		for _, n := range inj.Counts() {
			fired += n
		}
		if fired > uint64(len(plan.Faults)+len(rounds)) {
			t.Fatalf("%d faults fired from a plan of %d", fired, len(plan.Faults))
		}
	})
}
