// Package sim provides the discrete-event simulation kernel on which the
// consolidated-cluster substrate runs: a monotonic simulated clock, a binary
// heap of timestamped events with deterministic tie-breaking, and seeded
// random-number streams so every experiment in the repository is exactly
// reproducible.
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/telemetry"
)

// Time is a simulated timestamp in seconds.
type Time float64

// Engine is a discrete-event simulator. The zero value is not ready for
// use; construct one with NewEngine.
type Engine struct {
	now       Time
	queue     []event // binary min-heap on (at, seq)
	seq       uint64  // tie-breaker; also counts scheduled events
	fired     uint64
	halted    bool
	highWater int

	// Telemetry handles, resolved once by Instrument; all nil when the
	// engine is uninstrumented. Nothing touches them per event: Run and
	// RunUntil flush the counts accrued since flushedSeq/flushedFired once
	// per call.
	scheduledC   *telemetry.Counter
	firedC       *telemetry.Counter
	queueHW      *telemetry.Gauge
	flushedSeq   uint64
	flushedFired uint64
}

// Instrument attaches a telemetry registry: every Run and RunUntil call
// then adds the events scheduled and fired since the previous flush to
// MetricEventsScheduled and MetricEventsFired and raises
// MetricQueueHighWater to the queue's high-water mark. Events scheduled
// before Instrument are not counted. Passing nil detaches.
func (e *Engine) Instrument(reg *telemetry.Registry) {
	e.flushedSeq, e.flushedFired = e.seq, e.fired
	if reg == nil {
		e.scheduledC, e.firedC, e.queueHW = nil, nil, nil
		return
	}
	e.scheduledC = reg.Counter(MetricEventsScheduled)
	e.firedC = reg.Counter(MetricEventsFired)
	e.queueHW = reg.Gauge(MetricQueueHighWater)
}

// Metric names maintained by an instrumented engine.
const (
	MetricEventsScheduled = "sim_events_scheduled_total"
	MetricEventsFired     = "sim_events_fired_total"
	MetricQueueHighWater  = "sim_queue_high_water"
)

// flush adds the counts accrued since the last flush to an instrumented
// engine's registry.
func (e *Engine) flush() {
	if e.scheduledC == nil {
		return
	}
	e.scheduledC.Add(e.seq - e.flushedSeq)
	e.firedC.Add(e.fired - e.flushedFired)
	e.queueHW.SetMax(float64(e.highWater))
	e.flushedSeq, e.flushedFired = e.seq, e.fired
}

// QueueHighWater returns the deepest the event queue has ever been.
func (e *Engine) QueueHighWater() int { return e.highWater }

// NewEngine returns an empty engine whose clock starts at 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset returns the engine to its initial state (clock 0, empty queue,
// zeroed counters; an attached registry stays attached, and counts not yet
// flushed to it by Run or RunUntil are dropped) while keeping the event
// queue's allocated storage, so one engine can be reused across the
// thousands of short runs the measurement layer performs. sizeHint, when
// larger than the current capacity, pre-grows the queue — callers pass a
// previous run's high-water mark to avoid heap regrowth mid-run. A reset
// engine behaves exactly like a fresh one: the tie-breaking sequence
// restarts at zero.
func (e *Engine) Reset(sizeHint int) {
	for i := range e.queue {
		e.queue[i] = event{}
	}
	e.queue = e.queue[:0]
	if sizeHint > cap(e.queue) {
		e.queue = make([]event, 0, sizeHint)
	}
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.halted = false
	e.highWater = 0
	e.flushedSeq, e.flushedFired = 0, 0
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Scheduled returns the total number of events scheduled so far.
func (e *Engine) Scheduled() uint64 { return e.seq }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// ErrPastEvent is returned when an event is scheduled before the current
// simulated time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// At schedules fn to run at absolute time t. Events at equal timestamps run
// in scheduling order. Scheduling in the past is an error.
func (e *Engine) At(t Time, fn func()) error {
	if t < e.now {
		return fmt.Errorf("%w: at %v, now %v", ErrPastEvent, t, e.now)
	}
	if math.IsNaN(float64(t)) || math.IsInf(float64(t), 0) {
		return fmt.Errorf("sim: non-finite event time %v", t)
	}
	e.push(event{at: t, seq: e.seq, fn: fn})
	e.seq++
	if len(e.queue) > e.highWater {
		e.highWater = len(e.queue)
	}
	return nil
}

// After schedules fn to run d seconds after the current time. Negative
// delays are errors.
func (e *Engine) After(d float64, fn func()) error {
	if d < 0 {
		return fmt.Errorf("%w: negative delay %v", ErrPastEvent, d)
	}
	return e.At(e.now+Time(d), fn)
}

// Halt stops the run loop after the currently executing event returns.
func (e *Engine) Halt() { e.halted = true }

// fireNext pops the earliest event and executes it.
func (e *Engine) fireNext() {
	ev := e.pop()
	e.now = ev.at
	e.fired++
	ev.fn()
}

// Run executes events until the queue is empty or Halt is called. It
// returns the final simulated time.
func (e *Engine) Run() Time {
	e.halted = false
	for len(e.queue) > 0 && !e.halted {
		e.fireNext()
	}
	e.flush()
	return e.now
}

// RunUntil executes events with timestamps <= deadline; the clock is left at
// min(deadline, time of last event). Events beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) Time {
	e.halted = false
	for len(e.queue) > 0 && !e.halted {
		if e.queue[0].at > deadline {
			break
		}
		e.fireNext()
	}
	if e.now < deadline && len(e.queue) > 0 && e.queue[0].at > deadline {
		e.now = deadline
	}
	e.flush()
	return e.now
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before is the queue order: earlier timestamp first, scheduling order
// among equal timestamps.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends ev and sifts it up to its place in the heap.
func (e *Engine) push(ev event) {
	q := append(e.queue, ev)
	e.queue = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

// pop removes and returns the earliest event: the last one takes the
// root's place and is sifted down.
func (e *Engine) pop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the closure so a pooled engine does not pin it
	q = q[:n]
	e.queue = q
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	if n > 0 {
		q[i] = last
	}
	return top
}
