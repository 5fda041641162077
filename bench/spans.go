package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the harness from
// outside the program. Spans of one request share Request; Parent names
// the rung above it on the ladder (0 for the outermost rung).
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent,omitempty"`
	Request int    `json:"request"`
	StartNs int64  `json:"start"`
	EndNs   int64  `json:"end"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// recorder keeps spans in memory until the run ends. With on == false it
// only times the call, which is how tracing overhead is measured.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, epoch: time.Now()}
}

// call times fn as one span and returns the span's ID (0 when tracing is
// off) and duration.
func (r *recorder) call(name string, parent, request int, fn func() error) (int, time.Duration, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	id := 0
	if r.on {
		id = len(r.spans) + 1
		r.spans = append(r.spans, span{
			ID: id, Name: name, Parent: parent, Request: request,
			StartNs: t0.Sub(r.epoch).Nanoseconds(), EndNs: t1.Sub(r.epoch).Nanoseconds(),
		})
	}
	return id, t1.Sub(t0), err
}

// selfTimes returns each span's self time in nanoseconds, indexed like
// spans: its duration minus the durations of its direct children. The
// ladder replays each rung as its own call, so children are subtracted by
// duration, not by interval overlap; a rung that runs faster in isolation
// than inside its parent makes the parent's self time larger, never wrong
// in sign convention.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		index[s.ID] = i
	}
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok && s.Parent != 0 {
			self[p] -= s.dur()
		}
	}
	return self
}

// byName groups values (parallel to spans) by span name.
func byName(spans []span, values []int64) map[string][]float64 {
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(values[i]))
	}
	return out
}

// durations returns every span's total duration, indexed like spans.
func durations(spans []span) []int64 {
	d := make([]int64, len(spans))
	for i, s := range spans {
		d[i] = s.dur()
	}
	return d
}

// writeTrace dumps the spans as JSON.
func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
