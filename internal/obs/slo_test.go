package obs

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func mustTracker(t *testing.T, cfg SLOConfig, reg *telemetry.Registry, bus *Bus) *SLOTracker {
	t.Helper()
	tr, err := NewSLOTracker(cfg, reg, bus)
	if err != nil {
		t.Fatalf("NewSLOTracker: %v", err)
	}
	return tr
}

// nextBreach returns the slo_breach event the last Observe published on
// ch, or nil if it published none. Publish has filled ch by the time
// Observe returns.
func nextBreach(t *testing.T, ch <-chan Event) *sloBreach {
	t.Helper()
	select {
	case ev := <-ch:
		br, ok := ev.Data.(sloBreach)
		if ev.Type != EventSLOBreach || !ok {
			t.Fatalf("event %q with %T, want %q with the breach payload", ev.Type, ev.Data, EventSLOBreach)
		}
		return &br
	default:
		return nil
	}
}

func TestSLOTrackerValidation(t *testing.T) {
	reg := telemetry.NewRegistry()
	ok := SLOConfig{TargetSeconds: 0.5, Budget: 0.05}
	cases := []struct {
		name string
		cfg  SLOConfig
		reg  *telemetry.Registry
	}{
		{"nil registry", ok, nil},
		{"zero target", SLOConfig{TargetSeconds: 0, Budget: 0.05}, reg},
		{"negative target", SLOConfig{TargetSeconds: -1, Budget: 0.05}, reg},
		{"zero budget", SLOConfig{TargetSeconds: 0.5, Budget: 0}, reg},
		{"budget of one", SLOConfig{TargetSeconds: 0.5, Budget: 1}, reg},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewSLOTracker(tc.cfg, tc.reg, nil); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
	if _, err := NewSLOTracker(ok, reg, nil); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestSLOTrackerWindowAccounting drives a known latency sequence through a
// small window and checks the burn-rate arithmetic end to end: window
// violation rate, burn rate, lifetime budget remaining, and the exported
// slo_* metrics.
func TestSLOTrackerWindowAccounting(t *testing.T) {
	reg, bus := telemetry.NewRegistry(), NewBus(8)
	events, cancel := bus.Subscribe()
	defer cancel()
	tr := mustTracker(t, SLOConfig{
		TargetSeconds: 0.1,
		Budget:        0.25,
		Window:        4,
		MinRequests:   4,
		burnThreshold: 2, // breach at window rate >= 0.5
		Cooldown:      time.Hour,
	}, reg, bus)
	clk := time.Unix(1000, 0)
	tr.SetNow(func() time.Time { return clk })

	// Three fast, one slow: window rate 1/4, burn 1.0 — under threshold.
	for _, lat := range []float64{0.01, 0.02, 0.03, 0.5} {
		if tr.Observe(lat); nextBreach(t, events) != nil {
			t.Fatalf("unexpected breach at latency %v", lat)
		}
	}
	s := tr.Snapshot()
	if s.Requests != 4 || s.Violations != 1 {
		t.Fatalf("requests/violations = %d/%d, want 4/1", s.Requests, s.Violations)
	}
	if math.Abs(s.WindowRate-0.25) > 1e-12 {
		t.Errorf("window rate = %v, want 0.25", s.WindowRate)
	}
	if math.Abs(s.BurnRate-1.0) > 1e-12 {
		t.Errorf("burn rate = %v, want 1.0", s.BurnRate)
	}

	// A second slow request slides the window to rate 2/4, burn 2.0:
	// exactly at threshold, so a breach fires.
	tr.Observe(0.9)
	br := nextBreach(t, events)
	if br == nil {
		t.Fatal("no breach at burn threshold")
	}
	if math.Abs(br.BurnRate-2.0) > 1e-12 {
		t.Errorf("breach burn rate = %v, want 2.0", br.BurnRate)
	}
	if br.Breaches != 1 || br.Violations != 2 || br.Requests != 5 {
		t.Errorf("breach counters = %+v", br)
	}
	// Lifetime: 2 violations / 5 requests = 0.4 of the 0.25 budget → the
	// budget is overspent, remaining is negative.
	wantRem := 1 - 0.4/0.25
	if math.Abs(br.BudgetRemaining-wantRem) > 1e-12 {
		t.Errorf("budget remaining = %v, want %v", br.BudgetRemaining, wantRem)
	}

	// Still inside the cooldown: a further violation updates gauges but
	// must not fire a second event.
	if tr.Observe(0.8); nextBreach(t, events) != nil {
		t.Fatal("breach fired inside cooldown")
	}
	// After the cooldown the sustained breach alerts again.
	clk = clk.Add(2 * time.Hour)
	if tr.Observe(0.7); nextBreach(t, events) == nil {
		t.Fatal("no breach after cooldown elapsed")
	}

	snap := reg.Snapshot()
	if got := snap.Counters[SLOMetricRequests]; got != 7 {
		t.Errorf("%s = %v, want 7", SLOMetricRequests, got)
	}
	if got := snap.Counters[sloMetricViolations]; got != 4 {
		t.Errorf("%s = %v, want 4", sloMetricViolations, got)
	}
	if got := snap.Counters[sloMetricBreaches]; got != 2 {
		t.Errorf("%s = %v, want 2", sloMetricBreaches, got)
	}
	if got := snap.Gauges[SLOMetricBurnRate]; got <= 0 {
		t.Errorf("%s = %v, want > 0", SLOMetricBurnRate, got)
	}
}

// TestSLOTrackerMinRequestsGate checks a cold tracker cannot alert before
// the window has substance, no matter how bad the early latencies are.
func TestSLOTrackerMinRequestsGate(t *testing.T) {
	bus := NewBus(8)
	events, cancel := bus.Subscribe()
	defer cancel()
	tr := mustTracker(t, SLOConfig{
		TargetSeconds: 0.001,
		Budget:        0.01,
		Window:        32,
		MinRequests:   5,
		burnThreshold: 1,
	}, telemetry.NewRegistry(), bus)
	for i := 0; i < 4; i++ {
		if tr.Observe(10); nextBreach(t, events) != nil {
			t.Fatalf("breach before MinRequests at observation %d", i+1)
		}
	}
	if tr.Observe(10); nextBreach(t, events) == nil {
		t.Fatal("no breach once MinRequests reached")
	}
}

func TestSLOTrackerNilSafe(t *testing.T) {
	var tr *SLOTracker
	tr.Observe(1) // must not panic
	if s := tr.Snapshot(); s.Requests != 0 {
		t.Error("nil tracker snapshot not zero")
	}
	tr.SetNow(time.Now) // must not panic
}

// sloTestServer wires a tracker into a full observability server the way
// cmd/interfd does: breaches publish on the bus behind /api/events and the
// snapshot feeds /api/slo.
func sloTestServer(t *testing.T, cfg SLOConfig, bus *Bus) (*Server, *SLOTracker, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	tr := mustTracker(t, cfg, reg, bus)
	srv := New(Options{Registry: reg, Bus: bus, SLOSnapshot: func() any { return tr.Snapshot() }})
	return srv, tr, reg
}

// breachConfig trips on every observation: tiny target, zero cooldown.
func breachConfig() SLOConfig {
	return SLOConfig{
		TargetSeconds: 1e-9,
		Budget:        0.05,
		Window:        64,
		MinRequests:   1,
		burnThreshold: 1,
		Cooldown:      0,
	}
}

// TestSLOBreachSSEConcurrentSubscribers is the satellite coverage for
// slo_breach frames under several concurrent SSE clients: every client
// must see every breach, in seq order, with the payload intact — run
// under -race like the drift SSE tests.
func TestSLOBreachSSEConcurrentSubscribers(t *testing.T) {
	bus := NewBus(64)
	srv, tracker, _ := sloTestServer(t, breachConfig(), bus)
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
	for bus.subscribers() < clients {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d subscribers registered", bus.subscribers(), clients)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < events; i++ {
		if tracker.Observe(0.25); tracker.Snapshot().Breaches != uint64(i+1) {
			t.Fatalf("observation %d did not breach", i)
		}
	}
	for c := 0; c < clients; c++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("client %d: %v", c, r.err)
		}
		for i, ev := range r.events {
			if ev.Type != EventSLOBreach {
				t.Errorf("client %d event %d type = %q, want %q", c, i, ev.Type, EventSLOBreach)
			}
			if i > 0 && ev.Seq <= r.events[i-1].Seq {
				t.Errorf("client %d: seq went backwards (%d after %d)", c, ev.Seq, r.events[i-1].Seq)
			}
			data, ok := ev.Data.(map[string]any)
			if !ok {
				t.Fatalf("client %d event %d data is %T, want object", c, i, ev.Data)
			}
			if burn, _ := data["burn_rate"].(float64); burn < 1 {
				t.Errorf("client %d event %d burn_rate = %v, want >= 1", c, i, data["burn_rate"])
			}
			if lat, _ := data["latency_seconds"].(float64); lat != 0.25 {
				t.Errorf("client %d event %d latency_seconds = %v, want 0.25", c, i, data["latency_seconds"])
			}
		}
	}
	if bus.Dropped() != 0 {
		t.Errorf("events dropped with draining clients: %d", bus.Dropped())
	}
}

// TestSLOBreachSSESlowConsumer is the satellite coverage for a stalled
// subscriber: the tracker must never block in Observe, a draining client
// keeps receiving, and the bus accounts the stalled client's drops.
func TestSLOBreachSSESlowConsumer(t *testing.T) {
	bus := NewBus(4) // tiny buffer so the stalled subscriber overflows fast
	srv, tracker, _ := sloTestServer(t, breachConfig(), bus)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The slow consumer subscribes directly and never drains.
	_, cancelSlow := bus.Subscribe()
	defer cancelSlow()

	// The fast consumer is a real SSE client.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/api/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for bus.subscribers() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("subscribers = %d, want 2", bus.subscribers())
		}
		time.Sleep(time.Millisecond)
	}

	// Publish until at least `events` breaches are out AND the fast
	// client has its quota. The fast client's buffer is as small and as
	// lossy as the stalled one's, so under CPU contention it can miss
	// more than half of any fixed number of events; a fixed count would
	// leave the collector waiting forever.
	const events, quota = 200, 100
	type collected struct {
		events []Event
		err    error
	}
	fastDone := make(chan collected, 1)
	go func() {
		evs, err := sseRead(resp.Body, quota)
		fastDone <- collected{evs, err}
	}()

	var got collected
	published, done := 0, false
	deadline = time.Now().Add(10 * time.Second)
	for published < events || !done {
		if time.Now().After(deadline) {
			cancel() // fail fast: ends the stream under the collector
			if !done {
				got = <-fastDone
			}
			t.Fatalf("after %d breaches in 10s the fast client has %d of %d events: %v",
				published, len(got.events), quota, got.err)
		}
		start := time.Now()
		if tracker.Observe(0.3); tracker.Snapshot().Breaches != uint64(published+1) {
			t.Fatalf("observation %d did not breach", published)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("breach %d took %v to publish — Observe blocked on the stalled subscriber", published, elapsed)
		}
		published++
		if published%10 == 0 {
			time.Sleep(time.Millisecond) // let the fast client drain
		}
		if !done {
			select {
			case got = <-fastDone:
				done = true
			default:
			}
		}
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	for i, ev := range got.events {
		if ev.Type != EventSLOBreach {
			t.Fatalf("fast client event %d type = %q, want %q", i, ev.Type, EventSLOBreach)
		}
	}
	if d := bus.Dropped(); d < uint64(published-4) {
		t.Errorf("dropped = %d, want >= %d (stalled subscriber buffers only 4)", d, published-4)
	}
}

// TestSLOEndpoint pins /api/slo: JSON snapshot when wired, 404 when not.
func TestSLOEndpoint(t *testing.T) {
	bus := NewBus(8)
	srv, tracker, _ := sloTestServer(t, SLOConfig{TargetSeconds: 0.1, Budget: 0.5, Window: 8, MinRequests: 1}, bus)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	tracker.Observe(0.05)
	tracker.Observe(0.2)

	resp, err := http.Get(ts.URL + "/api/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	var snap SLOSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if snap.Requests != 2 || snap.Violations != 1 {
		t.Errorf("snapshot = %+v, want 2 requests / 1 violation", snap)
	}
	if snap.TargetSeconds != 0.1 {
		t.Errorf("target = %v, want 0.1", snap.TargetSeconds)
	}

	bare := httptest.NewServer(New(Options{}).Handler())
	defer bare.Close()
	resp2, err := http.Get(bare.URL + "/api/slo")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("without a tracker: status = %d, want 404", resp2.StatusCode)
	}
}
