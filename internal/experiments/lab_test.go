package experiments

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
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

// TestMemoBuildsOnce: eight goroutines that ask a fresh lab for the same
// model at once all get one model, built once — once on the private
// cluster and once on EC2, counted by the lab's "building interference
// model" records.
func TestMemoBuildsOnce(t *testing.T) {
	var builds atomic.Int64
	l, err := NewLab(Config{Seed: 1, Quick: true,
		Logger: slog.New(countingHandler{"building interference model", &builds})})
	if err != nil {
		t.Fatal(err)
	}
	for _, get := range []struct {
		env   string
		model func(string) (*core.Model, error)
	}{{"private", l.Model}, {"ec2", l.ec2Model}} {
		builds.Store(0)
		const callers = 8
		var (
			wg     sync.WaitGroup
			start  = make(chan struct{})
			models [callers]*core.Model
			errs   [callers]error
		)
		for i := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				models[i], errs[i] = get.model("M.milc")
			}()
		}
		close(start)
		wg.Wait()
		for i := range callers {
			if errs[i] != nil {
				t.Fatalf("%s: caller %d: %v", get.env, i, errs[i])
			}
			if models[i] != models[0] {
				t.Errorf("%s: caller %d got another model than caller 0", get.env, i)
			}
		}
		if n := builds.Load(); n != 1 {
			t.Errorf("%s: %d builds of M.milc for %d concurrent callers, want 1", get.env, n, callers)
		}
	}
}
