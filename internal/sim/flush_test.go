package sim

import (
	"testing"

	"repro/internal/telemetry"
)

// queueCounts reads the three metrics Flush reports.
func queueCounts(reg *telemetry.Registry) (scheduled, fired uint64, highWater float64) {
	return reg.Counter(MetricEventsScheduled).Value(),
		reg.Counter(MetricEventsFired).Value(),
		reg.Gauge(MetricQueueHighWater).Value()
}

// checkFlushed: after a Flush, the registry holds exactly what the queue
// counted — nothing dropped, nothing counted twice.
func checkFlushed(t *testing.T, step string, q *Queue[func()], reg *telemetry.Registry) {
	t.Helper()
	s, f, hw := queueCounts(reg)
	if s != q.seq || f != q.fired || hw != float64(q.highWater) {
		t.Errorf("%s: registry scheduled/fired/high-water = %d/%d/%v, queue %d/%d/%d",
			step, s, f, hw, q.seq, q.fired, q.highWater)
	}
}

// scheduleTicks queues n events at times 1..n, each of which schedules one
// more a second later: 2n events in all, at most n queued at once.
func scheduleTicks(t *testing.T, q *Queue[func()], n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if err := q.At(Time(i), func() {
			if err := q.After(1, func() {}); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineFlushesOncePerRun: a queue reaches a registry only through
// Flush, with the counts accrued since the last one. Across a run to
// completion and a run halted mid-queue and then resumed, the registry
// must end holding exactly the queue's own counts.
func TestEngineFlushesOncePerRun(t *testing.T) {
	t.Run("Run", func(t *testing.T) {
		var q Queue[func()]
		reg := telemetry.NewRegistry()
		scheduleTicks(t, &q, 6)
		drain(&q)
		if s, f, _ := queueCounts(reg); s != 0 || f != 0 {
			t.Errorf("counted %d/%d before any Flush", s, f)
		}
		if q.fired != 12 {
			t.Fatalf("fired %d events, want 12", q.fired)
		}
		q.Flush(reg)
		checkFlushed(t, "Run", &q, reg)
		drain(&q) // nothing queued: must add nothing
		q.Flush(reg)
		checkFlushed(t, "empty Run", &q, reg)
	})
	t.Run("Halt", func(t *testing.T) {
		var q Queue[func()]
		reg := telemetry.NewRegistry()
		for i := 1; i <= 10; i++ {
			if err := q.At(Time(i), func() {}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			fn, _ := q.Pop()
			fn()
		}
		if q.fired != 4 || q.Len() != 6 {
			t.Fatalf("halted run fired %d, left %d pending; want 4 and 6", q.fired, q.Len())
		}
		q.Flush(reg)
		checkFlushed(t, "halted Run", &q, reg)
		drain(&q)
		q.Flush(reg)
		checkFlushed(t, "Run after Halt", &q, reg)
	})
}

// TestEngineFlushAcrossPooledReuse: a pooled queue alternates between
// instrumented and bare runs, with Reset between them, as the task engine
// uses it. Each registry must hold exactly its own runs' counts: none
// from the runs before it, none from the bare runs after.
func TestEngineFlushAcrossPooledReuse(t *testing.T) {
	var q Queue[func()]
	first := telemetry.NewRegistry()
	runOnce := func(reg *telemetry.Registry) {
		q.Reset()
		scheduleTicks(t, &q, 5)
		drain(&q)
		q.Flush(reg)
	}
	runOnce(nil)
	runOnce(first)
	s1, f1, hw1 := queueCounts(first)
	if s1 != 10 || f1 != 10 || hw1 != 5 {
		t.Fatalf("one instrumented run counted %d/%d/%v, want 10/10/5", s1, f1, hw1)
	}
	runOnce(nil)
	runOnce(nil)
	if s, f, hw := queueCounts(first); s != s1 || f != f1 || hw != hw1 {
		t.Errorf("bare runs reached the registry: %d/%d/%v, was %d/%d/%v", s, f, hw, s1, f1, hw1)
	}
	runOnce(first)
	if s, f, _ := queueCounts(first); s != 2*s1 || f != 2*f1 {
		t.Errorf("second instrumented run: registry %d/%d, want %d/%d", s, f, 2*s1, 2*f1)
	}

	// A run reset before it flushed reports nothing to the next Flush.
	q.Reset()
	scheduleTicks(t, &q, 5)
	drain(&q)
	runOnce(first)
	if s, f, _ := queueCounts(first); s != 3*s1 || f != 3*f1 {
		t.Errorf("run after an unflushed Reset: registry %d/%d, want %d/%d", s, f, 3*s1, 3*f1)
	}

	// Counts a bare Flush dropped are not the next registry's to count.
	q.Reset()
	if err := q.At(1, func() {}); err != nil {
		t.Fatal(err)
	}
	q.Flush(nil)
	if err := q.At(2, func() {}); err != nil {
		t.Fatal(err)
	}
	drain(&q)
	late := telemetry.NewRegistry()
	q.Flush(late)
	if s, f, _ := queueCounts(late); s != 1 || f != 2 {
		t.Errorf("flush after a bare flush of one event counted %d scheduled, %d fired; want 1 and 2", s, f)
	}
}
