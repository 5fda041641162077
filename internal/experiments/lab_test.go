package experiments

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/telemetry"
)

// countingHandler counts the log records whose message is msg.
type countingHandler struct {
	msg string
	n   *atomic.Int64
}

func (h countingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h countingHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h countingHandler) WithGroup(string) slog.Handler            { return h }

func (h countingHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message == h.msg {
		h.n.Add(1)
	}
	return nil
}

// TestMemoBuildsOnce: eight goroutines that ask a fresh site for the same
// model at once all get one model, built once, and one naive model — on
// the lab's private and EC2 sites and on a site a runner opens, with the
// builds counted by the sites' "building interference model" records.
func TestMemoBuildsOnce(t *testing.T) {
	var builds atomic.Int64
	l, err := NewLab(Config{Seed: 1, Quick: true,
		Logger: slog.New(countingHandler{"building interference model", &builds})})
	if err != nil {
		t.Fatal(err)
	}
	env, err := measure.NewEnv(cluster.Default(), l.Cfg.Seed+77)
	if err != nil {
		t.Fatal(err)
	}
	env.UnitCores = 4
	for _, s := range []*site{l.private, l.ec2, l.site("multiway", env, l.Cfg.heteroSamples())} {
		builds.Store(0)
		const callers = 8
		var (
			wg     sync.WaitGroup
			start  = make(chan struct{})
			models [callers]*core.Model
			naives [callers]*core.NaiveModel
			errs   [callers]error
		)
		for i := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if models[i], errs[i] = s.model("M.milc"); errs[i] == nil {
					naives[i], errs[i] = s.naive("M.milc")
				}
			}()
		}
		close(start)
		wg.Wait()
		for i := range callers {
			if errs[i] != nil {
				t.Fatalf("%s: caller %d: %v", s.name, i, errs[i])
			}
			if models[i] != models[0] || naives[i] != naives[0] {
				t.Errorf("%s: caller %d got another model than caller 0", s.name, i)
			}
		}
		if n := builds.Load(); n != 1 {
			t.Errorf("%s: %d builds of M.milc for %d concurrent callers, want 1", s.name, n, callers)
		}
	}
}

// TestModelBuildCount pins how many interference models a quick lab
// builds: 19 for the paper's runners, 30 once the extras have run too.
// Every model goes through a site's memo, so no artifact profiles an
// application twice on one env, and the count is the same at any worker
// count.
func TestModelBuildCount(t *testing.T) {
	for _, workers := range []int{1, 8} {
		reg := telemetry.NewRegistry()
		l, err := NewLab(Config{Seed: 1, Quick: true, Workers: workers, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range []struct {
			name string
			rs   []Runner
			want uint64
		}{{"the paper's runners", Runners(), 19}, {"the extras", ExtraRunners(), 30}} {
			if _, err := l.Run(step.rs); err != nil {
				t.Fatal(err)
			}
			if got := reg.Snapshot().Counters["models_built_total"]; got != step.want {
				t.Errorf("workers %d: %d models built after %s, want %d", workers, got, step.name, step.want)
			}
		}
	}
}
