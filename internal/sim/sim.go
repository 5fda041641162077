// Package sim provides the discrete-event simulation kernel on which the
// consolidated-cluster substrate runs: a monotonic simulated clock over a
// binary heap of timestamped events with deterministic tie-breaking, and
// seeded random-number streams so every experiment in the repository is
// exactly reproducible.
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/telemetry"
)

// Time is a simulated timestamp in seconds.
type Time float64

// Queue is a discrete-event queue whose events carry a payload of type T.
// Its consumer runs the simulation: it pops the earliest event, which
// advances the clock to the event's time, acts on the payload (scheduling
// more events with At or After), and stops when Pop reports the queue
// empty or whenever it decides to. Events at equal times pop in scheduling
// order.
//
// The zero value is an empty queue whose clock starts at 0. A Queue is not
// safe for concurrent use.
type Queue[T any] struct {
	now       Time
	items     []item[T] // binary min-heap on (at, seq)
	seq       uint64    // tie-breaker; also counts scheduled events
	fired     uint64
	highWater int

	// The counts Flush has already reported.
	flushedSeq, flushedFired uint64
}

type item[T any] struct {
	at  Time
	seq uint64
	v   T
}

// Metric names Flush reports to.
const (
	MetricEventsScheduled = "sim_events_scheduled_total"
	MetricEventsFired     = "sim_events_fired_total"
	MetricQueueHighWater  = "sim_queue_high_water"
)

// Flush adds the events scheduled and popped since the previous Flush or
// Reset to reg's MetricEventsScheduled and MetricEventsFired, and raises
// its MetricQueueHighWater to the queue's high-water mark. A consumer
// flushes once per run, so the registry costs nothing per event. A nil reg
// drops the counts.
func (q *Queue[T]) Flush(reg *telemetry.Registry) {
	if reg != nil {
		reg.Counter(MetricEventsScheduled).Add(q.seq - q.flushedSeq)
		reg.Counter(MetricEventsFired).Add(q.fired - q.flushedFired)
		reg.Gauge(MetricQueueHighWater).SetMax(float64(q.highWater))
	}
	q.flushedSeq, q.flushedFired = q.seq, q.fired
}

// Reset returns the queue to its zero state (clock 0, no events, zeroed
// counts, the tie-breaking sequence restarted) but keeps the heap's
// storage, so a queue reused across many short runs grows only to the
// largest of them. A reset queue behaves exactly like a new one.
func (q *Queue[T]) Reset() {
	clear(q.items) // a payload that holds pointers must not outlive its event
	*q = Queue[T]{items: q.items[:0]}
}

// Now returns the current simulated time: the time of the last popped
// event.
func (q *Queue[T]) Now() Time { return q.now }

// Len returns the number of queued events.
func (q *Queue[T]) Len() int { return len(q.items) }

// ErrPastEvent is returned when an event is scheduled before the current
// simulated time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// At schedules an event carrying v at absolute time t. Scheduling in the
// past or at a non-finite time is an error.
func (q *Queue[T]) At(t Time, v T) error {
	if t < q.now {
		return fmt.Errorf("%w: at %v, now %v", ErrPastEvent, t, q.now)
	}
	if math.IsNaN(float64(t)) || math.IsInf(float64(t), 0) {
		return fmt.Errorf("sim: non-finite event time %v", t)
	}
	q.push(item[T]{at: t, seq: q.seq, v: v})
	q.seq++
	if len(q.items) > q.highWater {
		q.highWater = len(q.items)
	}
	return nil
}

// After schedules an event carrying v d seconds after the current time.
// Negative delays are errors.
func (q *Queue[T]) After(d float64, v T) error {
	if d < 0 {
		return fmt.Errorf("%w: negative delay %v", ErrPastEvent, d)
	}
	return q.At(q.now+Time(d), v)
}

// Pop removes the earliest event, advances the clock to its time and
// returns its payload; ok is false, and nothing changes, when the queue is
// empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	top := q.pop()
	q.now = top.at
	q.fired++
	return top.v, true
}

// before is the queue order: earlier timestamp first, scheduling order
// among equal timestamps.
func (a *item[T]) before(b *item[T]) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends it and sifts it up to its place in the heap.
func (q *Queue[T]) push(it item[T]) {
	h := append(q.items, it)
	q.items = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !it.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
}

// pop removes and returns the earliest event of a non-empty heap: the last
// one takes the root's place and is sifted down.
func (q *Queue[T]) pop() item[T] {
	h := q.items
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = item[T]{} // a pooled queue must not pin the payload
	h = h[:n]
	q.items = h
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if n > 0 {
		h[i] = last
	}
	return top
}
