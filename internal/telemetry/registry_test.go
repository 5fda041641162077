package telemetry

import (
	"math"
	"sync"
	"testing"
)

// TestRegistryConcurrentAccess hammers one registry from many goroutines:
// handle resolution races against handle resolution, and every metric kind
// races against itself. Run with -race; the assertions then check that no
// increment was lost.
func TestRegistryConcurrentAccess(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	const perG = 1000

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				reg.Counter("shared_total").Inc()
				reg.Gauge("hw").SetMax(float64(g*perG + i))
				reg.Histogram("h", []float64{0.5}).Observe(float64(i % 2))
			}
		}(g)
	}
	wg.Wait()

	if got := reg.Counter("shared_total").Value(); got != goroutines*perG {
		t.Errorf("counter lost updates: got %d, want %d", got, goroutines*perG)
	}
	if got := reg.Gauge("hw").Value(); got != float64(goroutines*perG-1) {
		t.Errorf("gauge high-water = %v, want %v", got, goroutines*perG-1)
	}
	h := reg.Histogram("h", []float64{0.5})
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("histogram lost observations: got %d, want %d", got, goroutines*perG)
	}
}

// TestRegistryHandleIdentity checks that repeated lookups of the same name
// return the same handle, and different names different handles.
func TestRegistryHandleIdentity(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Error("Counter(a) returned two distinct handles")
	}
	if reg.Counter("a") == reg.Counter("b") {
		t.Error("Counter(a) and Counter(b) share a handle")
	}
	if reg.Gauge("g") != reg.Gauge("g") {
		t.Error("Gauge(g) returned two distinct handles")
	}
	if reg.Histogram("h", []float64{1}) != reg.Histogram("h", nil) {
		t.Error("Histogram(h) returned two distinct handles")
	}
}

// TestHistogramBucketBoundaries pins the "le" semantics: an observation
// equal to an upper bound lands in that bucket, one just above it in the
// next, and anything beyond the last upper in the +Inf bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.0, 1.0001, 2.0, 3.9, 4.0, 4.0001, 100} {
		h.Observe(v)
	}
	want := []uint64{
		2, // <= 1: 0.5, 1.0
		2, // <= 2: 1.0001, 2.0
		2, // <= 4: 3.9, 4.0
		2, // +Inf: 4.0001, 100
	}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Errorf("Count = %d, want 8", h.Count())
	}
	wantSum := 0.5 + 1.0 + 1.0001 + 2.0 + 3.9 + 4.0 + 4.0001 + 100
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Errorf("Sum = %v, want %v", h.Sum(), wantSum)
	}
}

// TestHistogramUnsortedUppers checks bucket bounds are sorted on creation.
func TestHistogramUnsortedUppers(t *testing.T) {
	h := newHistogram([]float64{4, 1, 2})
	got := h.Uppers()
	want := []float64{1, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Uppers = %v, want %v", got, want)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1e-6, 4, 4)
	want := []float64{1e-6, 4e-6, 16e-6, 64e-6}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-15 {
			t.Errorf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLabel(t *testing.T) {
	got := Label("runs_total", "alg", "binary", "node", "3")
	want := `runs_total{alg="binary",node="3"}`
	if got != want {
		t.Errorf("Label = %q, want %q", got, want)
	}
	if got := Label("plain"); got != "plain" {
		t.Errorf("Label with no pairs = %q, want plain", got)
	}
}

func TestGaugeAddAndSet(t *testing.T) {
	var g Gauge
	g.Set(1.5)
	g.Add(2.25)
	if got := g.Value(); got != 3.75 {
		t.Errorf("gauge = %v, want 3.75", got)
	}
	g.SetMax(1.0) // below current: no-op
	if got := g.Value(); got != 3.75 {
		t.Errorf("SetMax lowered the gauge to %v", got)
	}
}
