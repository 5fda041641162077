package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/drift"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// startTestDaemon runs the daemon in-process on a free port with a small
// profiling budget and returns its base URL, a cancel func, and the
// channel delivering runDaemon's final error.
func startTestDaemon(t *testing.T, mutate func(*daemonConfig)) (string, context.CancelFunc, chan error, string) {
	t.Helper()
	dir := t.TempDir()
	cfg := defaultDaemonConfig()
	cfg.listen = "127.0.0.1:0"
	cfg.mix = []string{"M.lmps", "C.libq", "H.KM", "N.cg"}
	cfg.samples = 6
	cfg.searchIters = 300
	cfg.reportPath = filepath.Join(dir, "report.json")
	cfg.driftAuditPath = filepath.Join(dir, "decisions.jsonl")
	addrCh := make(chan string, 1)
	cfg.notifyAddr = func(a string) { addrCh <- a }
	if mutate != nil {
		mutate(&cfg)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		errCh <- runDaemon(ctx, cfg, obs.Nop())
		close(done)
	}()
	// Join the drain before t.TempDir's cleanup (registered above, so it
	// runs after this one) removes the directory the drain writes into.
	t.Cleanup(func() {
		cancel()
		<-done
	})
	select {
	case addr := <-addrCh:
		return "http://" + addr, cancel, errCh, cfg.reportPath
	case err := <-errCh:
		cancel()
		t.Fatalf("daemon died before binding: %v", err)
		return "", nil, nil, ""
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("daemon never bound its listener")
		return "", nil, nil, ""
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestDaemonObservabilityPlane is the end-to-end acceptance test: readiness
// flips 503 -> 200 after the model build, /metrics serves valid Prometheus
// text with the self-driver's request and round counters and build_info,
// /api/events streams one decision event per verified decision, pprof
// profiles, and shutdown drains and writes the final RunReport.
func TestDaemonObservabilityPlane(t *testing.T) {
	base, cancel, errCh, reportPath := startTestDaemon(t, nil)
	defer cancel()

	// Readiness starts 503 while startup profiling runs, then flips.
	if code, _ := get(t, base+"/readyz"); code == http.StatusOK {
		t.Log("daemon became ready before first poll (fast build) — ordering not observable")
	}
	waitFor(t, "/readyz to flip to 200", 30*time.Second, func() bool {
		code, _ := get(t, base+"/readyz")
		return code == http.StatusOK
	})
	if code, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d", code)
	}

	// SSE: the self-driver's verified decisions must arrive.
	sseCtx, sseCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer sseCancel()
	req, err := http.NewRequestWithContext(sseCtx, "GET", base+"/api/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	seen := map[string]bool{}
	reader := bufio.NewReader(resp.Body)
	for !seen["decision"] {
		line, err := reader.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended before a decision event arrived (saw %v): %v", seen, err)
		}
		if strings.HasPrefix(line, "event: ") {
			seen[strings.TrimSpace(strings.TrimPrefix(line, "event: "))] = true
		}
	}
	sseCancel()

	// Metrics: valid exposition text carrying the driver's traffic and
	// build identity metrics.
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE " + telemetry.BuildInfoMetric + " gauge",
		telemetry.Label(serve.MetricRequests, "endpoint", "place"),
		"interfd_rounds_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) < 2 {
			t.Errorf("malformed metrics line %q", line)
		}
	}

	// pprof: a one-second CPU profile must come back non-empty.
	profCode, profBody := get(t, base+"/debug/pprof/profile?seconds=1")
	if profCode != http.StatusOK || len(profBody) == 0 {
		t.Errorf("/debug/pprof/profile = %d with %d bytes", profCode, len(profBody))
	}

	// Live report snapshot identifies the daemon.
	_, repBody := get(t, base+"/api/report")
	var rep telemetry.RunReport
	if err := json.Unmarshal([]byte(repBody), &rep); err != nil {
		t.Fatalf("/api/report is not JSON: %v", err)
	}
	if rep.Tool != "interfd" {
		t.Errorf("report tool = %q", rep.Tool)
	}

	// Graceful shutdown: cancel, drain, final report on disk.
	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not drain and exit")
	}
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("final report missing: %v", err)
	}
	var final telemetry.RunReport
	if err := json.Unmarshal(raw, &final); err != nil {
		t.Fatalf("final report is not JSON: %v", err)
	}
	if final.Tool != "interfd" || final.WallSeconds <= 0 {
		t.Errorf("final report = tool %q, wall %v", final.Tool, final.WallSeconds)
	}
	if final.Metrics.Counters["interfd_rounds_total"] == 0 {
		t.Error("final report records zero completed rounds")
	}
}

// TestDaemonBoundedRounds runs a fixed round budget to completion without
// any signal and checks the self-driver terminates by itself, every one of
// its decisions served by the placement service and audited.
func TestDaemonBoundedRounds(t *testing.T) {
	base, cancel, errCh, reportPath := startTestDaemon(t, func(c *daemonConfig) {
		c.rounds = 2
	})
	defer cancel()
	_ = base
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("bounded daemon never finished")
	}
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("report missing: %v", err)
	}
	var rep telemetry.RunReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if got := rep.Metrics.Counters["interfd_rounds_total"]; got != 2 {
		t.Errorf("rounds = %d, want 2", got)
	}
	if got := rep.Metrics.Counters[telemetry.Label(serve.MetricRequests, "endpoint", "place")]; got != 2 {
		t.Errorf("placement requests served = %d, want 2", got)
	}
	// Four apps observed per verified decision.
	if got := rep.Metrics.Counters[drift.MetricObservations]; got != 8 {
		t.Errorf("drift observations = %d, want 8 (two verified four-app decisions)", got)
	}
}

// TestRejectsBadInputBeforeRunning: a positional argument or a removed
// flag fails flag parsing, before anything is opened; the defaults parse.
func TestRejectsBadInputBeforeRunning(t *testing.T) {
	for _, bad := range [][]string{
		{"bogus"},
		{"-rounds", "3", "extra-arg"},
		{"-drift-threshold", "0.1"},
	} {
		if _, _, err := parseFlags(bad, io.Discard); err == nil {
			t.Errorf("%v: accepted", bad)
		}
	}
	cfg, _, err := parseFlags([]string{"-rounds", "3"}, io.Discard)
	if err != nil || cfg.rounds != 3 {
		t.Errorf("-rounds 3: rounds %d, err %v", cfg.rounds, err)
	}
}
