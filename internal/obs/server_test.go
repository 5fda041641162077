package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func testServer(t *testing.T) (*Server, *telemetry.Registry, *telemetry.Tracer, *Bus) {
	t.Helper()
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(64)
	bus := NewBus(64)
	rep := telemetry.NewRunReport("obstest", 7, []string{"-x"})
	return New(Options{Registry: reg, Tracer: tr, Bus: bus, Report: rep}), reg, tr, bus
}

// checkPromText validates the Prometheus text exposition shape: every line
// is a # comment or `name[{labels}] value` with a parsable value.
func checkPromText(t *testing.T, body string) {
	t.Helper()
	if body != "" && !strings.HasSuffix(body, "\n") {
		t.Error("exposition does not end in a newline")
	}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Errorf("malformed exposition line %q", line)
			continue
		}
		val := line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Errorf("unparsable value %q in line %q", val, line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 && !strings.HasSuffix(name, "}") {
			t.Errorf("unbalanced label block in %q", line)
		}
	}
}

// TestMetricsUnderConcurrentScrapes hammers /metrics from several clients
// while a writer mutates the registry — the race-detector test the -race
// CI pass exercises.
func TestMetricsUnderConcurrentScrapes(t *testing.T) {
	srv, reg, _, _ := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		c := reg.Counter("chaos_total")
		h := reg.Histogram("chaos_seconds", []float64{1, 2, 4})
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Inc()
			reg.Gauge(telemetry.Label("chaos_gauge", "i", fmt.Sprint(i%7))).Set(float64(i))
			h.Observe(float64(i % 5))
		}
	}()

	var scrapers sync.WaitGroup
	for g := 0; g < 4; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("scrape status %d", resp.StatusCode)
				}
				if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
					t.Errorf("content type %q", ct)
				}
				checkPromText(t, string(body))
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	writer.Wait()
}

// TestReadinessFlipOrdering checks /healthz is alive from the start while
// /readyz flips 503 -> 200 -> 503 with SetReady.
func TestReadinessFlipOrdering(t *testing.T) {
	srv, _, _, _ := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz before ready = %d, want 200", got)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz before ready = %d, want 503", got)
	}
	srv.SetReady(true)
	if got := status("/readyz"); got != http.StatusOK {
		t.Errorf("/readyz after SetReady(true) = %d, want 200", got)
	}
	if !srv.Ready() {
		t.Error("Ready() = false after SetReady(true)")
	}
	srv.SetReady(false)
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz after SetReady(false) = %d, want 503", got)
	}
}

// TestSSEDeliveryAndDisconnect subscribes over HTTP, checks published
// events arrive typed and ordered, then disconnects and checks the bus
// subscriber is cleaned up.
func TestSSEDeliveryAndDisconnect(t *testing.T) {
	srv, _, _, bus := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/api/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// Wait for the subscriber to register before publishing.
	deadline := time.Now().Add(5 * time.Second)
	for bus.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("SSE subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}
	bus.Publish("decision", map[string]any{"request": "r-1", "objective": 1.25})
	bus.Publish("job_completed", map[string]any{"job_id": 42})

	reader := bufio.NewReader(resp.Body)
	var types []string
	var payloads []string
	for len(types) < 2 {
		line, err := reader.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended early: %v (got %v)", err, types)
		}
		line = strings.TrimRight(line, "\n")
		if strings.HasPrefix(line, "event: ") {
			types = append(types, strings.TrimPrefix(line, "event: "))
		}
		if strings.HasPrefix(line, "data: ") {
			payloads = append(payloads, strings.TrimPrefix(line, "data: "))
		}
	}
	if types[0] != "decision" || types[1] != "job_completed" {
		t.Errorf("event types = %v", types)
	}
	for _, p := range payloads {
		var ev Event
		if err := json.Unmarshal([]byte(p), &ev); err != nil {
			t.Errorf("data line %q is not an Event: %v", p, err)
		}
	}

	// Disconnect: the handler must unsubscribe from the bus.
	cancel()
	deadline = time.Now().Add(5 * time.Second)
	for bus.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber leaked after disconnect: %d live", bus.Subscribers())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReportAndSpansEndpoints(t *testing.T) {
	srv, reg, tr, _ := testServer(t)
	reg.Counter("events_total").Add(5)
	tr.StartSpan("unit.test").End()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep telemetry.RunReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if rep.Tool != "obstest" || rep.Metrics.Counters["events_total"] != 5 {
		t.Errorf("report = %+v", rep)
	}
	if rep.SpansTotal != 1 {
		t.Errorf("SpansTotal = %d, want 1", rep.SpansTotal)
	}
	if rep.WallSeconds <= 0 {
		t.Errorf("WallSeconds = %v, want > 0", rep.WallSeconds)
	}

	resp2, err := http.Get(ts.URL + "/api/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var trace telemetry.TraceReport
	if err := json.NewDecoder(resp2.Body).Decode(&trace); err != nil {
		t.Fatalf("spans are not JSON: %v", err)
	}
	if trace.Total != 1 || len(trace.Spans) != 1 || trace.Spans[0].Name != "unit.test" {
		t.Errorf("trace = %+v", trace)
	}
}

func TestPprofMounted(t *testing.T) {
	srv, _, _, _ := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestDegradedEndpoints: a server with no backing pieces still serves
// health and metrics, 404s the report, and 503s the event stream.
func TestDegradedEndpoints(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	for path, want := range map[string]int{
		"/metrics":       http.StatusOK,
		"/healthz":       http.StatusOK,
		"/readyz":        http.StatusServiceUnavailable,
		"/api/report":    http.StatusNotFound,
		"/api/spans":     http.StatusOK,
		"/api/events":    http.StatusServiceUnavailable,
		"/api/drift":     http.StatusNotFound,
		"/api/decisions": http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestDriftAndDecisionsEndpoints wires snapshot/JSONL sources and checks
// both endpoints serve them; the sources are the obs-side contract for the
// drift tracker and decision audit log.
func TestDriftAndDecisionsEndpoints(t *testing.T) {
	snapCalls := 0
	srv := New(Options{
		DriftSnapshot: func() any {
			snapCalls++
			return map[string]any{"round": snapCalls, "stale_cells": 3}
		},
		DecisionsJSONL: func(w io.Writer) error {
			_, err := io.WriteString(w, "{\"round\":0}\n{\"round\":1}\n")
			return err
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/drift")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("drift content type %q", ct)
	}
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("drift snapshot is not JSON: %v", err)
	}
	if snap["stale_cells"] != 3.0 {
		t.Errorf("snapshot = %v", snap)
	}

	resp2, err := http.Get(ts.URL + "/api/decisions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("decisions content type %q", ct)
	}
	body, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("decision lines = %d, want 2: %q", len(lines), body)
	}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Errorf("line %d is not JSON: %v", i, err)
		}
	}
	// Each /api/drift request must take a fresh snapshot.
	resp3, err := http.Get(ts.URL + "/api/drift")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if snapCalls != 2 {
		t.Errorf("snapshot calls = %d, want 2", snapCalls)
	}
}

// sseCollect reads SSE frames until `want` events arrived or the stream
// ends, returning the decoded events.
func sseCollect(t *testing.T, body io.Reader, want int) []Event {
	t.Helper()
	out, err := sseRead(body, want)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sseRead is sseCollect for goroutines other than the test's own: it
// reports a short or malformed stream as an error instead of failing t.
func sseRead(body io.Reader, want int) ([]Event, error) {
	reader := bufio.NewReader(body)
	var out []Event
	for len(out) < want {
		line, err := reader.ReadString('\n')
		if err != nil {
			return out, fmt.Errorf("stream ended early after %d events: %w", len(out), err)
		}
		line = strings.TrimRight(line, "\n")
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			return out, fmt.Errorf("data line %q is not an Event: %w", line, err)
		}
		out = append(out, ev)
	}
	return out, nil
}

// TestSSEConcurrentSubscribers runs several SSE clients at once while the
// bus publishes drift events, checking every client sees every event in
// order — the satellite coverage for the event bus under -race.
func TestSSEConcurrentSubscribers(t *testing.T) {
	srv, _, _, bus := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 5
	const events = 20
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type result struct {
		events []Event
		err    error
	}
	results := make(chan result, clients)
	var ready sync.WaitGroup
	ready.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/api/events", nil)
			if err != nil {
				ready.Done()
				results <- result{err: err}
				return
			}
			resp, err := http.DefaultClient.Do(req)
			ready.Done()
			if err != nil {
				results <- result{err: err}
				return
			}
			defer resp.Body.Close()
			evs := sseCollect(t, resp.Body, events)
			results <- result{events: evs}
		}()
	}
	ready.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for bus.Subscribers() < clients {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d subscribers registered", bus.Subscribers(), clients)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < events; i++ {
		bus.Publish("drift_detected", map[string]any{
			"app": "M.lmps", "reason": "residual", "round": i,
		})
	}
	for c := 0; c < clients; c++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("client %d: %v", c, r.err)
		}
		for i, ev := range r.events {
			if ev.Type != "drift_detected" {
				t.Errorf("client %d event %d type = %q", c, i, ev.Type)
			}
			if i > 0 && ev.Seq <= r.events[i-1].Seq {
				t.Errorf("client %d: seq went backwards (%d after %d)", c, ev.Seq, r.events[i-1].Seq)
			}
		}
	}
	if bus.Dropped() != 0 {
		t.Errorf("events dropped with draining clients: %d", bus.Dropped())
	}
}

// TestSSESlowConsumer stalls one bus subscriber (a never-draining
// subscription, the worst case behind a wedged SSE connection) while an
// HTTP client drains normally: the publisher must never block, the live
// client must keep receiving, and the stalled subscriber's losses must
// show up in the drop counter. The bus is lossy by contract, so the
// publisher is paced on the live client's progress, not on the clock: it
// never runs more than one buffer ahead of what the client has read, which
// makes "the live client misses nothing" a property and not a race.
func TestSSESlowConsumer(t *testing.T) {
	const buffer = 4 // tiny, so the stalled subscriber overflows at once
	reg := telemetry.NewRegistry()
	bus := NewBus(buffer)
	srv := New(Options{Registry: reg, Bus: bus})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Stalled subscriber: registered, never drained.
	_, slowCancel := bus.Subscribe()
	defer slowCancel()

	// Fast client: drains continuously over HTTP.
	fastCtx, fastCancel := context.WithCancel(context.Background())
	defer fastCancel()
	fastReq, err := http.NewRequestWithContext(fastCtx, "GET", ts.URL+"/api/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	fastResp, err := http.DefaultClient.Do(fastReq)
	if err != nil {
		t.Fatal(err)
	}
	defer fastResp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for bus.Subscribers() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/2 subscribers registered", bus.Subscribers())
		}
		time.Sleep(time.Millisecond)
	}

	// Were an event lost on the way to the live client, the read below
	// would wait for it forever; end the stream under it instead. (A
	// Publish that blocked on the stalled subscriber hangs the test.)
	watchdog := time.AfterFunc(30*time.Second, fastCancel)
	defer watchdog.Stop()
	const events = 500
	reader := bufio.NewReader(fastResp.Body) // sseRead keeps using it: bufio.NewReader of a Reader is that Reader
	var evs []Event
	for i := 0; i < events; i += buffer {
		burst := min(buffer, events-i)
		for j := 0; j < burst; j++ {
			bus.Publish("drift_detected", map[string]any{"round": i + j})
		}
		got, err := sseRead(reader, burst)
		if err != nil {
			t.Fatalf("fast client, %d events published while a peer stalled: %v", i+burst, err)
		}
		evs = append(evs, got...)
	}
	fastCancel()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("fast client seq went backwards: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
	// The stalled subscriber never drains its buffer, so every publish
	// past its capacity counted a drop for it; the live client, never more
	// than one buffer behind, lost nothing.
	if dropped := bus.Dropped(); dropped != events-buffer {
		t.Errorf("dropped = %d, want %d, all from the stalled subscriber", dropped, events-buffer)
	}
}

func TestStartAndShutdown(t *testing.T) {
	srv, _, _, _ := testServer(t)
	run, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + run.Addr + "/healthz")
	if err != nil {
		t.Fatalf("GET over real listener: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := run.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + run.Addr + "/healthz"); err == nil {
		t.Error("server still serving after shutdown")
	}
}
