package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// serveOnlyDaemon starts a serve-only daemon with a two-workload mix (fast
// profiling) and waits for readiness.
func serveOnlyDaemon(t *testing.T, mutate func(*daemonConfig)) (string, context.CancelFunc, chan error) {
	t.Helper()
	base, cancel, errCh, _ := startTestDaemon(t, func(c *daemonConfig) {
		c.serveOnly = true
		c.mix = []string{"M.lmps", "C.libq"}
		c.samples = 4
		c.searchIters = 120
		if mutate != nil {
			mutate(c)
		}
	})
	waitFor(t, "/readyz to flip to 200", 60*time.Second, func() bool {
		code, _ := get(t, base+"/readyz")
		return code == http.StatusOK
	})
	return base, cancel, errCh
}

func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestDaemonPlacementAPI is the serving-plane acceptance test: the same
// request body twice returns byte-identical placements, what-if reproduces
// the search's numbers, /api/slo answers, the span tree carries the
// request ID, and /metrics exposes the serve_* family plus process health.
func TestDaemonPlacementAPI(t *testing.T) {
	base, cancel, errCh := serveOnlyDaemon(t, nil)
	defer cancel()

	req := serve.PlaceRequest{
		ID:   "accept-1",
		Apps: []serve.AppDemand{{App: "M.lmps", Units: 4}, {App: "C.libq", Units: 4}},
	}
	code, first := post(t, base+"/api/place", req)
	if code != http.StatusOK {
		t.Fatalf("/api/place = %d: %s", code, first)
	}
	code2, second := post(t, base+"/api/place", req)
	if code2 != http.StatusOK {
		t.Fatalf("second /api/place = %d", code2)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("identical requests returned different bytes:\n%s\nvs\n%s", first, second)
	}
	var placed serve.Response
	if err := json.Unmarshal(first, &placed); err != nil {
		t.Fatal(err)
	}
	if placed.Objective <= 0 || placed.Evaluations <= 0 {
		t.Errorf("response = %+v", placed)
	}

	// What-if on the searched placement reproduces its numbers.
	wiCode, wiBody := post(t, base+"/api/whatif", serve.WhatIfRequest{Placement: placed.Placement})
	if wiCode != http.StatusOK {
		t.Fatalf("/api/whatif = %d: %s", wiCode, wiBody)
	}
	var wi serve.Response
	if err := json.Unmarshal(wiBody, &wi); err != nil {
		t.Fatal(err)
	}
	if wi.Objective != placed.Objective {
		t.Errorf("whatif objective %v, place %v", wi.Objective, placed.Objective)
	}

	// /api/slo accounts the traffic.
	sloCode, sloBody := get(t, base+"/api/slo")
	if sloCode != http.StatusOK {
		t.Fatalf("/api/slo = %d", sloCode)
	}
	var slo obs.SLOSnapshot
	if err := json.Unmarshal([]byte(sloBody), &slo); err != nil {
		t.Fatal(err)
	}
	if slo.Requests < 3 {
		t.Errorf("SLO requests = %d, want >= 3", slo.Requests)
	}

	// Span tree: a serve.place root tagged with the request ID, with its
	// stages as children.
	_, spansBody := get(t, base+"/api/spans")
	var tr telemetry.TraceReport
	if err := json.Unmarshal([]byte(spansBody), &tr); err != nil {
		t.Fatal(err)
	}
	var root telemetry.SpanRecord
	stages := map[string]bool{}
	for _, sp := range tr.Spans {
		if sp.Name == "serve.place" && sp.Request == "accept-1" {
			root = sp
		}
	}
	for _, sp := range tr.Spans {
		if sp.ParentID == root.ID && sp.Request == "accept-1" {
			stages[sp.Name] = true
		}
	}
	if root.ID == 0 {
		t.Fatal("no serve.place span tagged accept-1")
	}
	for _, want := range []string{"admit", "wait", "search", "respond"} {
		if !stages[want] {
			t.Errorf("missing %s child span under serve.place", want)
		}
	}

	// Metrics: serve_* family and process health in the exposition.
	_, metrics := get(t, base+"/metrics")
	for _, want := range []string{
		serve.MetricQueueDepth, serve.HistE2E + "_bucket",
		serve.HistE2E + "_p50", obs.RuntimeMetricGoroutines,
		obs.SLOMetricRequests,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve-only daemon did not exit")
	}
}

// TestDaemonSLOBreach forces every request to violate the SLO (target
// 1ns) and checks the acceptance criteria: a nonzero burn-rate gauge on
// /metrics and an slo_breach frame on /api/events.
func TestDaemonSLOBreach(t *testing.T) {
	base, cancel, _ := serveOnlyDaemon(t, func(c *daemonConfig) {
		c.slo.TargetSeconds = 1e-9
		c.slo.MinRequests = 1
		c.slo.Cooldown = 0
	})
	defer cancel()

	sseCtx, sseCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer sseCancel()
	sseReq, err := http.NewRequestWithContext(sseCtx, "GET", base+"/api/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	code, body := post(t, base+"/api/place", serve.PlaceRequest{
		Apps: []serve.AppDemand{{App: "M.lmps", Units: 2}},
	})
	if code != http.StatusOK {
		t.Fatalf("/api/place = %d: %s", code, body)
	}

	reader := bufio.NewReader(resp.Body)
	for {
		line, err := reader.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE ended before slo_breach arrived: %v", err)
		}
		if strings.TrimSpace(line) == "event: "+obs.EventSLOBreach {
			break
		}
	}
	sseCancel()

	_, metrics := get(t, base+"/metrics")
	burn := 0.0
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, obs.SLOMetricBurnRate+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(obs.SLOMetricBurnRate)+1:]), 64)
			if err != nil {
				t.Fatalf("parse burn rate line %q: %v", line, err)
			}
			burn = v
		}
	}
	if burn <= 0 {
		t.Errorf("%s = %v, want > 0", obs.SLOMetricBurnRate, burn)
	}
}

// TestDaemonAddrFile: -addr-file publishes the bound address.
func TestDaemonAddrFile(t *testing.T) {
	dir := t.TempDir()
	addrPath := filepath.Join(dir, "addr")
	base, cancel, _ := serveOnlyDaemon(t, func(c *daemonConfig) {
		c.addrFile = addrPath
	})
	defer cancel()
	raw, err := os.ReadFile(addrPath)
	if err != nil {
		t.Fatalf("addr file missing: %v", err)
	}
	if got := "http://" + strings.TrimSpace(string(raw)); got != base {
		t.Errorf("addr file = %q, daemon at %q", got, base)
	}
}

// replayBodies draws a seeded request sequence: n bodies of one or both
// of M.lmps and C.libq, 2 or 4 units each, an explicit search seed, and a
// QoS bound of 1.5 on the first app of about a quarter of them. Each body
// also draws an exponential gap first, the arrival offset this sequence
// was once replayed open-loop with, so that seed 7 keeps its old trace.
func replayBodies(seed int64, n int) []serve.PlaceRequest {
	pool := []string{"M.lmps", "C.libq"}
	rng := rand.New(rand.NewSource(seed))
	out := make([]serve.PlaceRequest, n)
	for i := range out {
		rng.ExpFloat64()
		k := 1 + rng.Intn(len(pool))
		perm := rng.Perm(len(pool))
		apps := make([]serve.AppDemand, k)
		for j := range apps {
			apps[j] = serve.AppDemand{App: pool[perm[j]], Units: 2 + 2*rng.Intn(2)}
		}
		out[i] = serve.PlaceRequest{
			ID:         "replay-" + strconv.Itoa(i),
			Apps:       apps,
			Seed:       seed*1_000_003 + int64(i) + 1,
			Iterations: 80,
		}
		if rng.Float64() < 0.25 {
			out[i].QoSApp, out[i].QoSMax = apps[0].App, 1.5
		}
	}
	return out
}

// TestDaemonReplayDeterministic is the serving plane's determinism
// contract end to end: two fresh serve-only daemons, each sent the same
// seeded sequence serially over HTTP, answer every request 200 with the
// same bytes, and their drains flush byte-identical audits of the three
// sampled decisions and reports that count every placement. One worker
// and serial posting fix the audit's order: the worker that searched
// records the decision.
func TestDaemonReplayDeterministic(t *testing.T) {
	bodies := append(replayBodies(7, 24), seededBodies(3, true)...)
	type replay struct {
		answers [][]byte
		audit   []byte
	}
	run := func() replay {
		var auditPath, reportPath string
		base, cancel, errCh := serveOnlyDaemon(t, func(c *daemonConfig) {
			c.workers = 1
			auditPath, reportPath = c.driftAuditPath, c.reportPath
		})
		defer cancel()
		var r replay
		for i, body := range bodies {
			code, raw := post(t, base+"/api/place", body)
			if code != http.StatusOK {
				t.Fatalf("request %d = %d: %s", i, code, raw)
			}
			r.answers = append(r.answers, raw)
		}
		cancel()
		awaitExit(t, errCh)

		var err error
		if r.audit, err = os.ReadFile(auditPath); err != nil {
			t.Fatalf("flushed decision audit missing: %v", err)
		}
		if got := len(loadAuditFile(t, auditPath)); got != 3 {
			t.Errorf("flushed audit holds %d decisions, want the 3 sampled ones", got)
		}
		raw, err := os.ReadFile(reportPath)
		if err != nil {
			t.Fatalf("drained report missing: %v", err)
		}
		var rep telemetry.RunReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("drained report is not a RunReport: %v", err)
		}
		key := telemetry.Label(serve.MetricRequests, "endpoint", "place")
		if got := rep.Metrics.Counters[key]; got != uint64(len(bodies)) {
			t.Errorf("report counts %s = %d, want %d", key, got, len(bodies))
		}
		return r
	}
	a, b := run(), run()
	for i := range bodies {
		if !bytes.Equal(a.answers[i], b.answers[i]) {
			t.Errorf("request %d answered differently by two daemons:\n%s\n%s", i, a.answers[i], b.answers[i])
		}
	}
	if !bytes.Equal(a.audit, b.audit) {
		t.Errorf("flushed audits differ:\n%s\n%s", a.audit, b.audit)
	}
}
