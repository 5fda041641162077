package obs

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run Golden -update ./internal/obs`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func fixedStats() runtimeStats {
	return runtimeStats{
		Goroutines:          12,
		HeapAllocBytes:      4 << 20,
		HeapObjects:         31337,
		GCPauseTotalSeconds: 0.0625,
		GCRuns:              9,
	}
}

// TestGoldenRuntimeExposition pins the process-health gauges' Prometheus
// exposition with a fixed sampler, so the metric names, help text, and
// value formatting cannot drift silently.
func TestGoldenRuntimeExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewRuntimeCollector(reg)
	c.setSampler(fixedStats)
	c.sample()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "runtime.golden.prom"), buf.Bytes())
}

// TestRuntimeSampledOnScrape checks the server refreshes the collector at
// the top of every /metrics scrape: two scrapes with a mutating sampler
// must expose two different goroutine counts.
func TestRuntimeSampledOnScrape(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewRuntimeCollector(reg)
	n := 0
	c.setSampler(func() runtimeStats {
		n++
		return runtimeStats{Goroutines: 100 + n}
	})
	srv := New(Options{Registry: reg, Runtime: c})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	first := scrape()
	checkPromText(t, first)
	if !strings.Contains(first, RuntimeMetricGoroutines+" 101\n") {
		t.Errorf("first scrape missing %s 101:\n%s", RuntimeMetricGoroutines, first)
	}
	second := scrape()
	if !strings.Contains(second, RuntimeMetricGoroutines+" 102\n") {
		t.Errorf("second scrape missing %s 102 — collector not resampled:\n%s", RuntimeMetricGoroutines, second)
	}
}

// TestRuntimeLiveSampler smoke-checks the real runtime reader: a live
// process has goroutines and a heap.
func TestRuntimeLiveSampler(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewRuntimeCollector(reg)
	c.sample()
	snap := reg.Snapshot()
	if g := snap.Gauges[RuntimeMetricGoroutines]; g < 1 {
		t.Errorf("%s = %v, want >= 1", RuntimeMetricGoroutines, g)
	}
	if h := snap.Gauges[runtimeMetricHeapAlloc]; h <= 0 {
		t.Errorf("%s = %v, want > 0", runtimeMetricHeapAlloc, h)
	}
}

func TestRuntimeCollectorNilSafe(t *testing.T) {
	var c *RuntimeCollector
	c.sample() // must not panic
	c.setSampler(fixedStats)
}

// TestRoutesMounted checks Options.Routes handlers share the plane's mux —
// the hook the placement service uses for POST /api/place.
func TestRoutesMounted(t *testing.T) {
	srv := New(Options{Routes: map[string]http.Handler{
		"POST /api/echo": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			fmt.Fprintf(w, "echo:%s", body)
		}),
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/echo", "text/plain", strings.NewReader("hi"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if string(b) != "echo:hi" {
		t.Errorf("mounted route returned %q", b)
	}
	// The built-in endpoints still work alongside mounted routes.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d with routes mounted", resp2.StatusCode)
	}
}
