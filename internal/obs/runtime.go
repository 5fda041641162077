package obs

import (
	"runtime"
	"sync"

	"repro/internal/telemetry"
)

// Runtime-health metric names, sampled on every /metrics scrape when a
// RuntimeCollector is installed on the server.
const (
	RuntimeMetricGoroutines  = "process_goroutines"
	runtimeMetricHeapAlloc   = "process_heap_alloc_bytes"
	runtimeMetricGCPause     = "process_gc_pause_seconds_total"
	runtimeMetricGCRuns      = "process_gc_runs_total"
	runtimeMetricHeapObjects = "process_heap_objects"
)

// runtimeStats is one sample of process health.
type runtimeStats struct {
	Goroutines          int
	HeapAllocBytes      uint64
	HeapObjects         uint64
	GCPauseTotalSeconds float64
	GCRuns              uint32
}

// RuntimeCollector exports process runtime health (goroutine count, heap
// bytes, GC pauses) as gauges, sampled lazily on each /metrics scrape
// rather than on a timer — an idle daemon costs nothing, and every scrape
// sees fresh values. The sampler is injectable so tests can golden-pin
// the exposition format with fixed values.
type RuntimeCollector struct {
	mu      sync.Mutex
	sampler func() runtimeStats

	goroutines, heap, objects, gcPause, gcRuns *telemetry.Gauge
}

// NewRuntimeCollector registers the process_* gauges on reg and returns a
// collector reading the real Go runtime.
func NewRuntimeCollector(reg *telemetry.Registry) *RuntimeCollector {
	c := &RuntimeCollector{
		sampler:    readRuntime,
		goroutines: reg.Gauge(RuntimeMetricGoroutines),
		heap:       reg.Gauge(runtimeMetricHeapAlloc),
		objects:    reg.Gauge(runtimeMetricHeapObjects),
		gcPause:    reg.Gauge(runtimeMetricGCPause),
		gcRuns:     reg.Gauge(runtimeMetricGCRuns),
	}
	reg.SetHelp(RuntimeMetricGoroutines, "Goroutines live at the last scrape.")
	reg.SetHelp(runtimeMetricHeapAlloc, "Heap bytes allocated and still in use at the last scrape.")
	reg.SetHelp(runtimeMetricHeapObjects, "Live heap objects at the last scrape.")
	reg.SetHelp(runtimeMetricGCPause, "Cumulative GC stop-the-world pause seconds.")
	reg.SetHelp(runtimeMetricGCRuns, "Completed GC cycles.")
	return c
}

// setSampler replaces the stats source — a test hook for deterministic
// exposition fixtures.
func (c *RuntimeCollector) setSampler(fn func() runtimeStats) {
	if c == nil || fn == nil {
		return
	}
	c.mu.Lock()
	c.sampler = fn
	c.mu.Unlock()
}

// sample reads the runtime and updates the gauges. Safe for concurrent
// scrapes.
func (c *RuntimeCollector) sample() {
	if c == nil {
		return
	}
	c.mu.Lock()
	fn := c.sampler
	c.mu.Unlock()
	s := fn()
	c.goroutines.Set(float64(s.Goroutines))
	c.heap.Set(float64(s.HeapAllocBytes))
	c.objects.Set(float64(s.HeapObjects))
	c.gcPause.Set(s.GCPauseTotalSeconds)
	c.gcRuns.Set(float64(s.GCRuns))
}

// readRuntime samples the live Go runtime. ReadMemStats stops the world
// briefly; scrape-driven sampling bounds that cost to scrape frequency.
func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{
		Goroutines:          runtime.NumGoroutine(),
		HeapAllocBytes:      ms.HeapAlloc,
		HeapObjects:         ms.HeapObjects,
		GCPauseTotalSeconds: float64(ms.PauseTotalNs) / 1e9,
		GCRuns:              ms.NumGC,
	}
}
