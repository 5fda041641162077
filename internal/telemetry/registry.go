// Package telemetry is the repository's observability layer: a
// concurrency-safe registry of named counters, gauges and fixed-bucket
// histograms; a lightweight span tracer backed by a
// ring buffer; and exporters to JSON and the Prometheus text format, plus a
// RunReport that snapshots a whole experiment for the cmd/ tools.
//
// The package depends only on the standard library and is imported by the
// simulation kernel, so it must never import any other internal package.
// All instrumentation is opt-in: every layer accepts a nil *Registry or
// *Tracer and then records nothing, keeping uninstrumented hot paths free
// of overhead. Metric naming conventions are documented in
// docs/OBSERVABILITY.md.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float metric that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increases the gauge by v.
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// SetMax raises the gauge to v if v exceeds the current value — a
// high-water mark.
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Bucket i counts
// observations <= Uppers[i] (Prometheus "le" semantics); observations above
// the last upper bound land in the implicit +Inf bucket.
type Histogram struct {
	uppers  []float64
	counts  []atomic.Uint64 // len(uppers)+1; last is +Inf
	sumBits atomic.Uint64
	total   atomic.Uint64
}

func newHistogram(uppers []float64) *Histogram {
	us := append([]float64(nil), uppers...)
	sort.Float64s(us)
	return &Histogram{uppers: us, counts: make([]atomic.Uint64, len(us)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v) // first upper >= v, i.e. v <= upper
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Uppers returns the bucket upper bounds (excluding +Inf).
func (h *Histogram) Uppers() []float64 { return append([]float64(nil), h.uppers...) }

// BucketCounts returns per-bucket counts; the final entry is the +Inf
// bucket. Counts are non-cumulative.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Registry is a concurrency-safe collection of named metrics. The zero
// value is not usable; construct with NewRegistry. Metric handles are
// get-or-create: callers should look a handle up once and hold it across
// the hot loop rather than resolving the name every operation.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string
	quantile []string // histograms whose quantile gauges Snapshot derives
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		help:     map[string]string{},
	}
}

// quantileGauges are the gauges ExportQuantiles derives: <histogram><suffix>.
var quantileGauges = []struct {
	suffix string
	q      float64
}{{"_p50", 0.5}, {"_p95", 0.95}, {"_p99", 0.99}}

// ExportQuantiles makes every read of the registry (Snapshot, and so
// WritePrometheus and RunReport) carry interpolated <name>_p50/_p95/_p99
// gauges for the named histograms, computed from the histogram state the
// same read exports. Nothing is computed as observations arrive, and an
// empty histogram exports no quantiles.
func (r *Registry) ExportQuantiles(histograms ...string) {
	r.mu.Lock()
	r.quantile = append(r.quantile, histograms...)
	r.mu.Unlock()
}

// SetHelp attaches Prometheus help text to a metric base name (the name
// without any label block). WritePrometheus emits it as a `# HELP` line
// ahead of the `# TYPE` line; metrics without help text export exactly as
// before. Later calls for the same base name overwrite the text.
func (r *Registry) SetHelp(base, text string) {
	r.mu.Lock()
	r.help[base] = text
	r.mu.Unlock()
}

// HelpFor returns the help text registered for a metric base name ("" when
// none).
func (r *Registry) HelpFor(base string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.help[base]
}

// Counter returns the counter with the given name, creating it on first
// use. Safe for concurrent callers.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram with the given name, creating it with
// the given bucket upper bounds on first use. Later calls ignore the
// bucket argument.
func (r *Registry) Histogram(name string, uppers []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h = newHistogram(uppers)
	r.hists[name] = h
	return h
}

// Label renders a metric name with label pairs in Prometheus form:
// Label("x_total", "alg", "full-brute") == `x_total{alg="full-brute"}`.
// Pairs must come as key, value, key, value, ...; an odd tail is dropped.
func Label(name string, kv ...string) string {
	if len(kv) < 2 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// ExpBuckets returns n histogram upper bounds starting at start and growing
// geometrically by factor — the usual shape for duration histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return []float64{start}
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
