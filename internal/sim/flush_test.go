package sim

import (
	"testing"

	"repro/internal/telemetry"
)

// engineCounts reads the three metrics an instrumented engine maintains.
func engineCounts(reg *telemetry.Registry) (scheduled, fired uint64, highWater float64) {
	return reg.Counter(MetricEventsScheduled).Value(),
		reg.Counter(MetricEventsFired).Value(),
		reg.Gauge(MetricQueueHighWater).Value()
}

// checkFlushed: after a Run or RunUntil call, the registry holds exactly
// what the engine counted — nothing dropped, nothing counted twice.
func checkFlushed(t *testing.T, step string, e *Engine, reg *telemetry.Registry) {
	t.Helper()
	s, f, hw := engineCounts(reg)
	if s != e.Scheduled() || f != e.Fired() || hw != float64(e.QueueHighWater()) {
		t.Errorf("%s: registry scheduled/fired/high-water = %d/%d/%v, engine %d/%d/%d",
			step, s, f, hw, e.Scheduled(), e.Fired(), e.QueueHighWater())
	}
}

// scheduleTicks queues n events at times 1..n, each of which schedules one
// more a second later: 2n events in all, at most n queued at once.
func scheduleTicks(t *testing.T, e *Engine, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if err := e.At(Time(i), func() {
			if err := e.After(1, func() {}); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineFlushesOncePerRun: an instrumented engine reaches its registry
// once per Run or RunUntil call, with the counts accrued since the last
// one. Across a run to completion, a deadline stopping mid-queue followed
// by a second call, and a halt, the registry must end holding exactly the
// engine's own counts.
func TestEngineFlushesOncePerRun(t *testing.T) {
	t.Run("Run", func(t *testing.T) {
		e, reg := NewEngine(), telemetry.NewRegistry()
		e.Instrument(reg)
		scheduleTicks(t, e, 6)
		if s, f, _ := engineCounts(reg); s != 0 || f != 0 {
			t.Errorf("counted %d/%d before any Run", s, f)
		}
		e.Run()
		if e.Fired() != 12 {
			t.Fatalf("fired %d events, want 12", e.Fired())
		}
		checkFlushed(t, "Run", e, reg)
		e.Run() // nothing queued: must add nothing
		checkFlushed(t, "empty Run", e, reg)
	})
	t.Run("RunUntil", func(t *testing.T) {
		e, reg := NewEngine(), telemetry.NewRegistry()
		e.Instrument(reg)
		scheduleTicks(t, e, 6)
		e.RunUntil(3.5)
		if e.Pending() == 0 || e.Fired() == 0 {
			t.Fatalf("deadline did not stop mid-queue: fired %d, pending %d", e.Fired(), e.Pending())
		}
		checkFlushed(t, "RunUntil", e, reg)
		e.RunUntil(5)
		checkFlushed(t, "second RunUntil", e, reg)
		e.Run()
		checkFlushed(t, "Run after RunUntil", e, reg)
		if e.Pending() != 0 {
			t.Fatalf("pending %d after Run", e.Pending())
		}
	})
	t.Run("Halt", func(t *testing.T) {
		e, reg := NewEngine(), telemetry.NewRegistry()
		e.Instrument(reg)
		for i := 1; i <= 10; i++ {
			i := i
			if err := e.At(Time(i), func() {
				if i == 4 {
					e.Halt()
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		e.Run()
		if e.Fired() != 4 || e.Pending() != 6 {
			t.Fatalf("halted run fired %d, left %d pending; want 4 and 6", e.Fired(), e.Pending())
		}
		checkFlushed(t, "halted Run", e, reg)
		e.Run()
		checkFlushed(t, "Run after Halt", e, reg)
	})
}

// TestEngineFlushAcrossPooledReuse: a pooled engine alternates between
// instrumented and bare runs, with Reset between them and Instrument(nil)
// on release, as the application engines use it. Each registry must hold
// exactly its own runs' counts: none from the runs before it was attached,
// none from the bare runs after it was detached.
func TestEngineFlushAcrossPooledReuse(t *testing.T) {
	e := NewEngine()
	first := telemetry.NewRegistry()
	runOnce := func(reg *telemetry.Registry) {
		e.Reset(0)
		if reg != nil {
			e.Instrument(reg)
		}
		scheduleTicks(t, e, 5)
		e.Run()
		e.Instrument(nil)
	}
	runOnce(nil)
	runOnce(first)
	s1, f1, hw1 := engineCounts(first)
	if s1 != 10 || f1 != 10 || hw1 != 5 {
		t.Fatalf("one instrumented run counted %d/%d/%v, want 10/10/5", s1, f1, hw1)
	}
	runOnce(nil)
	runOnce(nil)
	if s, f, hw := engineCounts(first); s != s1 || f != f1 || hw != hw1 {
		t.Errorf("bare runs after release reached the detached registry: %d/%d/%v, was %d/%d/%v", s, f, hw, s1, f1, hw1)
	}
	runOnce(first)
	if s, f, _ := engineCounts(first); s != 2*s1 || f != 2*f1 {
		t.Errorf("second instrumented run: registry %d/%d, want %d/%d", s, f, 2*s1, 2*f1)
	}

	// Reset with the registry left attached: the next run counts from zero.
	e.Instrument(first)
	e.Reset(0)
	scheduleTicks(t, e, 5)
	e.Run()
	if s, f, _ := engineCounts(first); s != 3*s1 || f != 3*f1 {
		t.Errorf("run after Reset with the registry attached: registry %d/%d, want %d/%d", s, f, 3*s1, 3*f1)
	}
	e.Instrument(nil)

	// Events scheduled before a registry is attached are not its to count.
	e.Reset(0)
	if err := e.At(1, func() {}); err != nil {
		t.Fatal(err)
	}
	late := telemetry.NewRegistry()
	e.Instrument(late)
	if err := e.At(2, func() {}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if s, _, _ := engineCounts(late); s != 1 {
		t.Errorf("registry attached after one of two events counted %d scheduled, want 1", s)
	}
}
