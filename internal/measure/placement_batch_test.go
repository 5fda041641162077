package measure_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/ec2"
	"repro/internal/measure"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// fourByFour lays out four apps of four units each on 8 two-slot hosts,
// app i%4 in slot i.
func fourByFour(t *testing.T, apps [4]string) *cluster.Placement {
	t.Helper()
	p, err := cluster.NewPlacement(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := p.Set(i/2, i%2, apps[i%4]); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestBatchPlacementMatchesRunPlacement: placements submitted to one
// batch measure bit for bit what the same placements measure one
// RunPlacement at a time, on the private cluster and on the EC2
// environment, whose background draws depend on each layout; and two
// placements that share an app (with as many units) measure its solo
// baseline once.
func TestBatchPlacementMatchesRunPlacement(t *testing.T) {
	reg := workloads.Registry()
	ps := []*cluster.Placement{
		fourByFour(t, [4]string{"M.milc", "C.libq", "H.KM", "M.lmps"}),
		fourByFour(t, [4]string{"M.milc", "N.cg", "S.WC", "M.zeus"}),
	}
	const solos = 7 // M.milc's 4-unit baseline is shared
	envs := map[string]func() (*measure.Env, error){
		"private": func() (*measure.Env, error) { return measure.NewEnv(cluster.Default(), 3) },
		"ec2":     func() (*measure.Env, error) { return ec2.NewEnv(3) },
	}
	for name, newEnv := range envs {
		env := func(workers int) (*measure.Env, *telemetry.Registry) {
			e, err := newEnv()
			if err != nil {
				t.Fatal(err)
			}
			e.Reps, e.Workers = 2, workers
			e.Telemetry = telemetry.NewRegistry()
			return e, e.Telemetry
		}
		serial, serialReg := env(1)
		var want []map[string]measure.AppOutcome
		for _, p := range ps {
			out, err := serial.RunPlacement(p, reg)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, out)
		}
		for _, workers := range []int{1, 4} {
			batched, batchedReg := env(workers)
			b := batched.NewBatch()
			hs := []*measure.PlacementResult{b.Placement(ps[0], reg), b.Placement(ps[1], reg)}
			if err := b.Run(); err != nil {
				t.Fatal(err)
			}
			for i, h := range hs {
				got, err := h.Outcomes()
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want[i]) {
					t.Fatalf("%s, workers %d, placement %d: %d outcomes, want %d", name, workers, i, len(got), len(want[i]))
				}
				for app, o := range want[i] {
					if got[app] != o {
						t.Errorf("%s, workers %d, placement %d, %s: batched %+v, RunPlacement %+v", name, workers, i, app, got[app], o)
					}
				}
			}
			runs := batchedReg.Counter(measure.MetricMeasureRuns).Value()
			if runs != solos || runs != serialReg.Counter(measure.MetricMeasureRuns).Value() {
				t.Errorf("%s, workers %d: %d solo runs batched, %d serial; want %d each",
					name, workers, runs, serialReg.Counter(measure.MetricMeasureRuns).Value(), solos)
			}
			if got := batchedReg.Counter(measure.MetricPlacementRuns).Value(); got != 2 {
				t.Errorf("%s, workers %d: %d placement runs, want 2", name, workers, got)
			}
		}
	}
}
