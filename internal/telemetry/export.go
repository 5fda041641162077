package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// HistogramSnapshot is the exported state of one histogram. Bucket counts
// are non-cumulative and the final entry is the +Inf bucket.
type HistogramSnapshot struct {
	Uppers []float64 `json:"uppers"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Quantile estimates the q-quantile of the recorded distribution by
// linear interpolation inside the bucket holding the target rank — the
// same estimator Prometheus's histogram_quantile applies server-side,
// available here for in-process latency readouts (p50/p95/p99 gauges,
// SLO snapshots).
//
// The first bucket interpolates from 0 when its upper bound is positive
// (durations and sizes), and degenerates to its upper bound otherwise.
// Ranks landing in the +Inf overflow bucket return the largest finite
// upper bound, since there is no right edge to interpolate toward.
// Quantile returns NaN for an empty histogram, a malformed snapshot, or
// q outside [0, 1].
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) || h.Count == 0 || len(h.Counts) != len(h.Uppers)+1 {
		return math.NaN()
	}
	rank := q * float64(h.Count)
	var cum uint64
	for i, n := range h.Counts {
		prev := cum
		cum += n
		if float64(cum) < rank || n == 0 {
			continue
		}
		if i == len(h.Uppers) {
			// Overflow bucket: clamp to the largest finite upper bound.
			if len(h.Uppers) == 0 {
				return math.NaN()
			}
			return h.Uppers[len(h.Uppers)-1]
		}
		upper := h.Uppers[i]
		lower := 0.0
		if i > 0 {
			lower = h.Uppers[i-1]
		} else if upper <= 0 {
			lower = upper
		}
		frac := (rank - float64(prev)) / float64(n)
		if frac < 0 {
			frac = 0
		}
		return lower + (upper-lower)*frac
	}
	return math.NaN()
}

// Snapshot is a point-in-time copy of every metric in a registry. Maps
// marshal with sorted keys, so the JSON form is deterministic for
// deterministic metric values.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	quantile := r.quantile // append-only: the elements under this header never change
	r.mu.RUnlock()
	for k, c := range counters {
		snap.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		snap.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		snap.Histograms[k] = HistogramSnapshot{
			Uppers: h.Uppers(), Counts: h.BucketCounts(), Count: h.Count(), Sum: h.Sum(),
		}
	}
	for _, name := range quantile {
		if h := snap.Histograms[name]; h.Count > 0 {
			for _, g := range quantileGauges {
				snap.Gauges[name+g.suffix] = h.Quantile(g.q)
			}
		}
	}
	return snap
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// splitName separates an optional Prometheus-style label block from a
// metric name: "x_total{alg=\"b\"}" -> ("x_total", `alg="b"`).
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// promName sanitizes a metric base name to the Prometheus charset.
func promName(base string) string {
	var b strings.Builder
	for i, c := range base {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9' && i > 0:
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabelName sanitizes a label name to the Prometheus label charset
// [a-zA-Z_][a-zA-Z0-9_]* (label names, unlike metric names, admit no ':').
func promLabelName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteRune(c)
		case c >= '0' && c <= '9' && i > 0:
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabelBlock sanitizes a raw label block (the text between '{' and '}'
// of a metric name) into valid Prometheus exposition syntax: label names
// are reduced to the legal charset and values are re-escaped with Go quote
// rules, which match the exposition format's (\\, \", \n). Names built with
// Label() pass through unchanged; hand-rolled names with special characters
// in keys or values come out scrape-safe. Distinct raw blocks can collapse
// to the same sanitized block; the exporter does not dedupe them.
func promLabelBlock(labels string) string {
	var b strings.Builder
	i := 0
	for i < len(labels) {
		eq := strings.IndexByte(labels[i:], '=')
		if eq < 0 {
			break // trailing garbage with no key=value shape: drop it
		}
		key := labels[i : i+eq]
		i += eq + 1
		var val string
		if i < len(labels) && labels[i] == '"' {
			// Quoted value: scan to the closing quote, honoring escapes.
			k := i + 1
			for k < len(labels) && labels[k] != '"' {
				if labels[k] == '\\' {
					k++
				}
				k++
			}
			if k >= len(labels) { // unterminated quote
				val = labels[i+1:]
				i = len(labels)
			} else {
				if uq, err := strconv.Unquote(labels[i : k+1]); err == nil {
					val = uq
				} else {
					val = labels[i+1 : k]
				}
				i = k + 1
			}
		} else {
			// Unquoted value: runs to the next comma.
			if k := strings.IndexByte(labels[i:], ','); k >= 0 {
				val = labels[i : i+k]
				i += k
			} else {
				val = labels[i:]
				i = len(labels)
			}
		}
		if i < len(labels) && labels[i] == ',' {
			i++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(promLabelName(strings.TrimSpace(key)))
		b.WriteByte('=')
		b.WriteString(strconv.Quote(val))
	}
	return b.String()
}

// promHelp escapes help text for a `# HELP` line per the exposition
// format: backslashes and newlines are the only characters that need it.
func promHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func promFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return fmt.Sprintf("%g", v)
	}
}

// WritePrometheus writes counters, gauges, and histograms in the
// Prometheus text exposition format. Output is sorted by metric name so
// it is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	r.mu.RLock()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.RUnlock()
	typed := map[string]bool{}
	// header emits the # HELP (when registered) and # TYPE lines once per
	// sanitized base name. Help is looked up by the raw base name, as
	// passed to SetHelp.
	header := func(sanitized, rawBase, kind string) error {
		if typed[sanitized] {
			return nil
		}
		typed[sanitized] = true
		if h := help[rawBase]; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", sanitized, promHelp(h)); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", sanitized, kind)
		return err
	}
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rawBase, labels := splitName(name)
		base := promName(rawBase)
		labels = promLabelBlock(labels)
		if err := header(base, rawBase, "counter"); err != nil {
			return err
		}
		full := base
		if labels != "" {
			full = base + "{" + labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", full, snap.Counters[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rawBase, labels := splitName(name)
		base := promName(rawBase)
		labels = promLabelBlock(labels)
		if err := header(base, rawBase, "gauge"); err != nil {
			return err
		}
		full := base
		if labels != "" {
			full = base + "{" + labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", full, promFloat(snap.Gauges[name])); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		rawBase, labels := splitName(name)
		base := promName(rawBase)
		labels = promLabelBlock(labels)
		if err := header(base, rawBase, "histogram"); err != nil {
			return err
		}
		withLe := func(le string) string {
			if labels == "" {
				return fmt.Sprintf("%s_bucket{le=%q}", base, le)
			}
			return fmt.Sprintf("%s_bucket{%s,le=%q}", base, labels, le)
		}
		var cum uint64
		for i, up := range h.Uppers {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s %d\n", withLe(promFloat(up)), cum); err != nil {
				return err
			}
		}
		cum += h.Counts[len(h.Counts)-1]
		if _, err := fmt.Fprintf(w, "%s %d\n", withLe("+Inf"), cum); err != nil {
			return err
		}
		suffix := ""
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, suffix, promFloat(h.Sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, suffix, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// RunReport snapshots one whole experiment run: tool identity, wall time,
// the final metric state, and a summary of recorded spans. The cmd/ tools
// write one to the path given by their -metrics flag.
type RunReport struct {
	Tool        string   `json:"tool"`
	Args        []string `json:"args,omitempty"`
	Seed        int64    `json:"seed"`
	StartedAt   string   `json:"started_at"` // RFC 3339, UTC
	WallSeconds float64  `json:"wall_seconds"`
	Metrics     Snapshot `json:"metrics"`
	SpansTotal  uint64   `json:"spans_total"`
	// Drift is the model-drift section: a snapshot of whatever source was
	// installed with SetDriftSource (cmd/interfd installs its
	// drift.Tracker). Omitted when no source is installed.
	Drift any `json:"drift,omitempty"`

	started time.Time
	driftFn func() any
}

// SetDriftSource installs the function Finish calls to populate the Drift
// section. Install it before the report is served concurrently (the obs
// plane copies the report struct per request); the function itself must be
// safe for concurrent calls.
func (r *RunReport) SetDriftSource(fn func() any) { r.driftFn = fn }

// NewRunReport starts a report clocked from now.
func NewRunReport(tool string, seed int64, args []string) *RunReport {
	now := time.Now()
	return &RunReport{
		Tool:      tool,
		Args:      args,
		Seed:      seed,
		StartedAt: now.UTC().Format(time.RFC3339),
		started:   now,
	}
}

// Finish stamps the wall duration and snapshots the registry and tracer
// (either may be nil).
func (r *RunReport) Finish(reg *Registry, tr *Tracer) {
	r.WallSeconds = time.Since(r.started).Seconds()
	if reg != nil {
		r.Metrics = reg.Snapshot()
	}
	if r.driftFn != nil {
		r.Drift = r.driftFn()
	}
	r.SpansTotal = tr.Total()
}

// TraceReport is the JSON document written to the -trace path: the spans
// the ring buffer retained, oldest first.
type TraceReport struct {
	Tool     string       `json:"tool"`
	Total    uint64       `json:"total"`    // spans ever recorded
	Retained int          `json:"retained"` // spans surviving in the ring
	Spans    []SpanRecord `json:"spans"`
}

// NewTraceReport snapshots a tracer.
func NewTraceReport(tool string, tr *Tracer) TraceReport {
	spans := tr.Spans()
	return TraceReport{Tool: tool, Total: tr.Total(), Retained: len(spans), Spans: spans}
}

// Emit finalizes rep against reg and tr and writes the files the cmd/
// tools' -metrics and -trace flags requested; empty paths are skipped and
// "-" writes to standard output.
func Emit(rep *RunReport, reg *Registry, tr *Tracer, metricsPath, tracePath string) error {
	rep.Finish(reg, tr)
	if metricsPath != "" {
		if err := WriteJSONFile(metricsPath, rep); err != nil {
			return err
		}
	}
	if tracePath != "" {
		if err := WriteJSONFile(tracePath, NewTraceReport(rep.Tool, tr)); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONFile writes v as indented JSON to path. The conventional path
// "-" selects standard output instead of a file — the cmd/ tools document
// it in their -metrics/-trace flag help.
func WriteJSONFile(path string, v any) error {
	if path == "-" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
