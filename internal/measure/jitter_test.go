package measure

import (
	"math"
	"testing"

	"repro/internal/workloads"
)

// TestJitterTablesKeyedByDefinition: two definitions that share a name —
// and so their run streams — but differ in NoiseSigma each read their own
// jitter tables. Every measurement on one Env, serial and interleaved, and
// batched over eight workers that run each (workload, rep) side by side
// on cold tables, must equal the same measurement on an Env that only ever
// saw that definition. A table keyed by name would hand the second
// definition the first one's factors.
func TestJitterTablesKeyedByDefinition(t *testing.T) {
	for _, name := range []string{"M.milc", "M.Gems", "H.KM", "S.CF", "C.libq"} {
		a := wl(t, name)
		b := a
		b.App.NoiseSigma *= 2
		var grid [][]float64
		for k := 0; k <= 8; k++ {
			p, err := HomogeneousPressures(8, k, 6)
			if err != nil {
				t.Fatal(err)
			}
			grid = append(grid, p)
		}
		alone := func(w workloads.Workload) []float64 {
			e := newTestEnv(t)
			var out []float64
			for _, p := range grid {
				v, err := e.RunWithBubbles(w, p)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, v)
			}
			return out
		}
		want := [2][]float64{alone(a), alone(b)}
		defs := [2]workloads.Workload{a, b}

		serial := newTestEnv(t)
		for i, p := range grid {
			for d, w := range defs {
				got, err := serial.RunWithBubbles(w, p)
				if err != nil {
					t.Fatalf("%s def %d: %v", name, d, err)
				}
				if math.Float64bits(got) != math.Float64bits(want[d][i]) {
					t.Errorf("%s def %d, %d interfered: %v beside the other definition, %v alone", name, d, i, got, want[d][i])
				}
			}
		}

		batched := newTestEnv(t)
		batched.Workers = 8
		bt := batched.NewBatch()
		var vals [2][]*Value
		for _, p := range grid {
			for d, w := range defs {
				vals[d] = append(vals[d], bt.bubbles(w, p))
			}
		}
		if err := bt.Run(); err != nil {
			t.Fatal(err)
		}
		for d := range defs {
			for i, v := range vals[d] {
				got, err := v.Result()
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want[d][i]) {
					t.Errorf("%s def %d, %d interfered, batched: %v, %v alone", name, d, i, got, want[d][i])
				}
			}
		}
	}
}
