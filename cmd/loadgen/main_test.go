package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// linPred is a pure linear interference model: 1 + w * sum(pressures).
type linPred struct{ w float64 }

func (f linPred) PredictPressures(ps []float64) (float64, error) {
	var sum float64
	for _, p := range ps {
		sum += p
	}
	return 1 + f.w*sum, nil
}

// testTarget stands up an in-process placement service behind a real obs
// mux — the same wiring interfd uses — and returns its base URL.
func testTarget(t *testing.T) string {
	t.Helper()
	s, err := serve.New(serve.Config{
		NumHosts: 8, SlotsPerHost: 2, Seed: 42,
		Iterations: 60, QueueDepth: 64, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.SetBackend(serve.Backend{
		Predictors: map[string]core.Predictor{
			"alpha": linPred{0.30}, "beta": linPred{0.05}, "gamma": linPred{0.10},
		},
		Scores: map[string]float64{"alpha": 2, "beta": 5, "gamma": 3},
	})
	srv := obs.New(obs.Options{Routes: s.Routes()})
	srv.SetReady(true)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func testConfig(seed int64) genConfig {
	return genConfig{
		N: 24, Rate: 500, Seed: seed,
		Pool:    []string{"alpha", "beta", "gamma"},
		Servers: 2, Iters: 40,
	}
}

// TestTraceDeterministic: the trace is a pure function of the seed, with
// strictly increasing arrivals and well-formed requests.
func TestTraceDeterministic(t *testing.T) {
	cfg := testConfig(7)
	a, b := buildTrace(cfg), buildTrace(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	prev := 0.0
	for i, tr := range a {
		if tr.Arrival <= prev {
			t.Errorf("arrival %d = %v, not after %v", i, tr.Arrival, prev)
		}
		prev = tr.Arrival
		if tr.Req.Seed == 0 || len(tr.Req.Apps) == 0 {
			t.Errorf("trace entry %d malformed: %+v", i, tr.Req)
		}
	}
	if c := buildTrace(testConfig(8)); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical traces")
	}
}

// TestReportByteIdentical is the determinism acceptance test: two full
// replays with the same seed against the same live service produce
// byte-identical reports with nonzero sustained throughput.
func TestReportByteIdentical(t *testing.T) {
	base := testTarget(t)
	cfg := testConfig(11)
	client := &http.Client{Timeout: 30 * time.Second}

	doc1, raw1, err := runTrace(cfg, client, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, raw2, err := runTrace(cfg, client, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Errorf("same-seed reports differ:\n%s\nvs\n%s", raw1, raw2)
	}
	if doc1.Errors != 0 {
		t.Errorf("errors = %d, want 0", doc1.Errors)
	}
	if doc1.Requests != cfg.N {
		t.Errorf("requests = %d, want %d", doc1.Requests, cfg.N)
	}
	if doc1.SustainedRPS <= 0 {
		t.Errorf("sustained_rps = %v, want > 0", doc1.SustainedRPS)
	}
	if doc1.Latency.P50 <= 0 || doc1.Latency.P99 < doc1.Latency.P50 {
		t.Errorf("latency stats inconsistent: %+v", doc1.Latency)
	}
	if doc1.MeanObjective <= 0 || doc1.Evaluations <= 0 {
		t.Errorf("aggregates missing: %+v", doc1)
	}

	// The report round-trips as JSON.
	var back reportDoc
	if err := json.Unmarshal(raw1, &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if back.Digest != doc1.Digest || back.Digest == "" {
		t.Errorf("digest = %q vs %q", back.Digest, doc1.Digest)
	}

	// A different seed changes the digest.
	doc3, _, err := runTrace(testConfig(12), client, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if doc3.Digest == doc1.Digest {
		t.Error("different seeds produced the same digest")
	}
}

// TestErrorsCounted: an unknown app in the pool turns into counted
// errors, not a crash, and errored requests stay out of the latency path.
func TestErrorsCounted(t *testing.T) {
	base := testTarget(t)
	cfg := testConfig(3)
	cfg.Pool = []string{"ghost"}
	client := &http.Client{Timeout: 30 * time.Second}
	doc, _, err := runTrace(cfg, client, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Errors != cfg.N {
		t.Errorf("errors = %d, want %d", doc.Errors, cfg.N)
	}
	if doc.SustainedRPS != 0 || doc.Latency.Max != 0 {
		t.Errorf("latency computed from errored requests: %+v", doc)
	}
}

// TestQuantileNearestRank pins the nearest-rank rule.
func TestQuantileNearestRank(t *testing.T) {
	cases := []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{nil, 0.5, 0},
		{[]float64{4}, 0.5, 4},
		{[]float64{4}, 0.99, 4},
		{[]float64{1, 2, 3, 4}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.75, 3},
		{[]float64{1, 2, 3, 4}, 0.99, 4},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.5, 5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9},
	}
	for _, c := range cases {
		if got := quantile(c.sorted, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.sorted, c.q, got, c.want)
		}
	}
}

// TestResolveAddr covers the flag plumbing: bare host:port gains a
// scheme, addr files are polled into existence, and missing flags fail.
func TestResolveAddr(t *testing.T) {
	if _, err := resolveAddr("", "", time.Now().Add(time.Second)); err == nil {
		t.Error("no addr accepted")
	}
	got, err := resolveAddr("127.0.0.1:9090", "", time.Now())
	if err != nil || got != "http://127.0.0.1:9090" {
		t.Errorf("resolveAddr = %q, %v", got, err)
	}
	f := t.TempDir() + "/addr"
	go func() {
		time.Sleep(50 * time.Millisecond)
		writeFile(t, f, "127.0.0.1:7777\n")
	}()
	got, err = resolveAddr("", f, time.Now().Add(5*time.Second))
	if err != nil || got != "http://127.0.0.1:7777" {
		t.Errorf("resolveAddr from file = %q, %v", got, err)
	}
	if _, err := resolveAddr("", t.TempDir()+"/never", time.Now().Add(-time.Second)); err == nil {
		t.Error("expired deadline on a missing addr file did not fail")
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Error(err)
	}
}
