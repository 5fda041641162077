package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// linPred predicts 1 + w*sum(pressures).
type linPred struct{ w float64 }

func (f linPred) PredictPressures(ps []float64) (float64, error) {
	var sum float64
	for _, p := range ps {
		sum += p
	}
	return 1 + f.w*sum, nil
}

// gatePred blocks every prediction until the gate channel closes, and
// announces each arrival on entered (when set; it must have room) — so a
// test knows a request is inside its search, on a worker, and held there.
type gatePred struct {
	inner   core.Predictor
	gate    <-chan struct{}
	entered chan<- struct{}
}

func (g gatePred) PredictPressures(ps []float64) (float64, error) {
	if g.entered != nil {
		select {
		case g.entered <- struct{}{}:
		default:
		}
	}
	<-g.gate
	return g.inner.PredictPressures(ps)
}

// gatedBackend is testBackend with app held behind a gate.
func gatedBackend(app string) (b Backend, entered <-chan struct{}, release func()) {
	// 64: far more arrivals than any test holds at once, so none is dropped.
	in, gate := make(chan struct{}, 64), make(chan struct{})
	b = testBackend()
	b.Predictors[app] = gatePred{inner: b.Predictors[app], gate: gate, entered: in}
	return b, in, sync.OnceFunc(func() { close(gate) })
}

// waitQueued blocks until n admitted requests sit in the queue.
func waitQueued(t *testing.T, s *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", n, len(s.queue))
		}
		time.Sleep(time.Millisecond)
	}
}

// await receives from ch or fails the test at the deadline.
func await[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

func testBackend() Backend {
	return Backend{
		Predictors: map[string]core.Predictor{
			"sens":   linPred{0.30},
			"quiet":  linPred{0.01},
			"noisy1": linPred{0.02},
			"noisy2": linPred{0.02},
		},
		Scores: map[string]float64{
			"sens": 0.5, "quiet": 0.5, "noisy1": 6, "noisy2": 6,
		},
	}
}

// newTestService builds an armed service over an 8x2 cluster with small
// search defaults, returning the observability pieces for assertions.
func newTestService(t *testing.T, mutate func(*Config)) (*Service, *telemetry.Registry, *telemetry.Tracer) {
	t.Helper()
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(256)
	cfg := Config{
		NumHosts: 8, SlotsPerHost: 2, Seed: 42,
		Iterations: 60, Restarts: 1,
		Telemetry: reg, Tracer: tr,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.SetBackend(testBackend())
	return s, reg, tr
}

func fourApps() []AppDemand {
	return []AppDemand{
		{App: "sens", Units: 4}, {App: "quiet", Units: 4},
		{App: "noisy1", Units: 4}, {App: "noisy2", Units: 4},
	}
}

func mustPlace(t *testing.T, s *Service, req PlaceRequest) Response {
	t.Helper()
	resp, status, err := s.Place(req)
	if err != nil {
		t.Fatalf("Place: status %d: %v", status, err)
	}
	if status != http.StatusOK {
		t.Fatalf("Place status = %d", status)
	}
	return resp
}

// TestPlaceBasics: a successful placement fills every response field
// consistently.
func TestPlaceBasics(t *testing.T) {
	s, _, _ := newTestService(t, nil)
	resp := mustPlace(t, s, PlaceRequest{ID: "r1", Apps: fourApps()})
	if resp.ID != "r1" || resp.Endpoint != "place" {
		t.Errorf("identity = %q/%q", resp.ID, resp.Endpoint)
	}
	if len(resp.Placement) != 8 || len(resp.Placement[0]) != 2 {
		t.Fatalf("placement dims = %dx%d", len(resp.Placement), len(resp.Placement[0]))
	}
	units := map[string]int{}
	for _, row := range resp.Placement {
		for _, app := range row {
			if app != "" {
				units[app]++
			}
		}
	}
	for _, d := range fourApps() {
		if units[d.App] != d.Units {
			t.Errorf("%s placed %d units, want %d", d.App, units[d.App], d.Units)
		}
	}
	if resp.Objective <= 0 || len(resp.Predicted) != 4 {
		t.Errorf("objective %v, predicted %v", resp.Objective, resp.Predicted)
	}
	if resp.Evaluations <= 0 {
		t.Error("no evaluations reported")
	}
	if !resp.QoSSatisfied {
		t.Error("unconstrained request not QoS-satisfied")
	}
}

// TestPlaceDeterministicUnderConcurrency is the service's core claim:
// identical requests produce byte-identical responses no matter how they
// interleave with other traffic or which worker runs them.
func TestPlaceDeterministicUnderConcurrency(t *testing.T) {
	s, _, _ := newTestService(t, func(c *Config) { c.Workers = 4; c.QueueDepth = 64 })

	// Serial reference responses for three distinct request contents.
	reqs := []PlaceRequest{
		{Apps: fourApps()},
		{Apps: fourApps(), Seed: 99},
		{Apps: []AppDemand{{App: "sens", Units: 2}, {App: "noisy1", Units: 2}}},
	}
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		b, err := json.Marshal(mustPlace(t, s, r))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b
	}

	const lanes = 4
	var wg sync.WaitGroup
	errs := make(chan string, lanes*len(reqs))
	for lane := 0; lane < lanes; lane++ {
		for i := range reqs {
			wg.Add(1)
			go func(lane, i int) {
				defer wg.Done()
				got, err := json.Marshal(mustPlace(t, s, reqs[i]))
				if err != nil {
					errs <- err.Error()
					return
				}
				if string(got) != string(want[i]) {
					errs <- fmt.Sprintf("lane %d req %d diverged:\n got %s\nwant %s", lane, i, got, want[i])
				}
			}(lane, i)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestWhatIfRoundTrip: scoring the placement a search returned reproduces
// the search's own numbers.
func TestWhatIfRoundTrip(t *testing.T) {
	s, _, _ := newTestService(t, nil)
	placed := mustPlace(t, s, PlaceRequest{Apps: fourApps()})
	wi, status, err := s.WhatIf(WhatIfRequest{ID: "wi1", Placement: placed.Placement})
	if err != nil {
		t.Fatalf("WhatIf: status %d: %v", status, err)
	}
	if wi.Endpoint != "whatif" || wi.ID != "wi1" {
		t.Errorf("identity = %q/%q", wi.ID, wi.Endpoint)
	}
	if wi.Objective != placed.Objective {
		t.Errorf("whatif objective %x, place %x", wi.Objective, placed.Objective)
	}
	if !reflect.DeepEqual(wi.Predicted, placed.Predicted) {
		t.Errorf("whatif predictions %v, place %v", wi.Predicted, placed.Predicted)
	}
	if wi.Evaluations != 1 {
		t.Errorf("whatif evaluations = %d, want 1", wi.Evaluations)
	}
}

// TestRequestErrors maps the failure modes to statuses.
func TestRequestErrors(t *testing.T) {
	s, _, _ := newTestService(t, nil)
	cases := []struct {
		name   string
		req    PlaceRequest
		status int
	}{
		{"no apps", PlaceRequest{}, http.StatusBadRequest},
		{"unknown app", PlaceRequest{Apps: []AppDemand{{App: "ghost", Units: 1}}}, http.StatusBadRequest},
		{"qos without bound", PlaceRequest{Apps: fourApps(), QoSApp: "sens"}, http.StatusBadRequest},
		{"qos app not requested", PlaceRequest{
			Apps: []AppDemand{{App: "quiet", Units: 1}}, QoSApp: "sens", QoSMax: 1.5,
		}, http.StatusBadRequest},
		{"over capacity", PlaceRequest{Apps: []AppDemand{{App: "quiet", Units: 99}}}, http.StatusBadRequest},
		{"unit count that would overflow a total", PlaceRequest{
			Apps: []AppDemand{{App: "quiet", Units: 1 << 62}, {App: "sens", Units: 1 << 62}},
		}, http.StatusBadRequest},
		{"hostage iterations", PlaceRequest{Apps: fourApps(), Iterations: 2_000_000_000}, http.StatusBadRequest},
		{"hostage restarts", PlaceRequest{Apps: fourApps(), Restarts: 1 << 30}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, status, err := s.Place(tc.req)
			if err == nil {
				t.Fatal("want error")
			}
			if status != tc.status {
				t.Errorf("status = %d, want %d", status, tc.status)
			}
		})
	}
}

// TestNotReadyBeforeBackend: both endpoints answer 503 until SetBackend.
func TestNotReadyBeforeBackend(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := New(Config{NumHosts: 4, SlotsPerHost: 2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Ready() {
		t.Error("ready before backend")
	}
	if _, status, err := s.Place(PlaceRequest{Apps: []AppDemand{{App: "a", Units: 1}}}); err == nil || status != http.StatusServiceUnavailable {
		t.Errorf("place before backend: status %d err %v", status, err)
	}
	if _, status, err := s.WhatIf(WhatIfRequest{Placement: [][]string{{"a", ""}, {"", ""}, {"", ""}, {"", ""}}}); err == nil || status != http.StatusServiceUnavailable {
		t.Errorf("whatif before backend: status %d err %v", status, err)
	}
	s.SetBackend(testBackend())
	if !s.Ready() {
		t.Error("not ready after backend")
	}
}

// placed is what one Place call returned, the response as JSON.
type placed struct {
	body   []byte
	status int
	err    error
}

// placeAsync runs s.Place(req) on its own goroutine.
func placeAsync(s *Service, req PlaceRequest) <-chan placed {
	out := make(chan placed, 1)
	go func() {
		resp, status, err := s.Place(req)
		body, _ := json.Marshal(resp)
		out <- placed{body, status, err}
	}()
	return out
}

// referenceBodies answers reqs on an unloaded service of its own.
func referenceBodies(t *testing.T, reqs []PlaceRequest) [][]byte {
	t.Helper()
	ref, _, _ := newTestService(t, nil)
	out := make([][]byte, len(reqs))
	for i, req := range reqs {
		out[i], _ = json.Marshal(mustPlace(t, ref, req))
	}
	return out
}

// TestSideBySide: a request admitted behind a search that is still
// running is taken by the free worker and answered while the first is
// still held — requests do not wait for one another unless every worker
// is busy — and both answers are the unloaded service's.
func TestSideBySide(t *testing.T) {
	reqs := []PlaceRequest{
		{ID: "held", Apps: fourApps()},
		{ID: "free", Apps: []AppDemand{{App: "sens", Units: 4}, {App: "noisy1", Units: 6}}},
	}
	want := referenceBodies(t, reqs)

	s, _, _ := newTestService(t, func(c *Config) { c.Workers = 2 })
	b, entered, release := gatedBackend("quiet")
	defer release()
	s.SetBackend(b)

	held := placeAsync(s, reqs[0])
	await(t, "the held request to reach its search", entered)
	free := await(t, "the second request to be answered beside the held one", placeAsync(s, reqs[1]))
	select {
	case <-held:
		t.Fatal("the gated request was answered before its gate opened")
	default:
	}
	release()
	for i, r := range []placed{await(t, "the held request", held), free} {
		if r.err != nil || r.status != http.StatusOK || string(r.body) != string(want[i]) {
			t.Errorf("%s: status %d err %v\n got %s\nwant %s", reqs[i].ID, r.status, r.err, r.body, want[i])
		}
	}
}

// TestQueueFullRejects: with every worker inside a search and the queue
// full, the next request is refused with 429 and counted once; the held
// and queued requests are all answered once the workers move again.
func TestQueueFullRejects(t *testing.T) {
	s, reg, _ := newTestService(t, func(c *Config) { c.Workers, c.QueueDepth = 2, 1 })
	b, entered, release := gatedBackend("quiet")
	defer release()
	s.SetBackend(b)

	req := PlaceRequest{Apps: []AppDemand{{App: "quiet", Units: 2}}}
	var admitted []<-chan placed
	for i := 0; i < 2; i++ { // one per worker, each held inside its search
		admitted = append(admitted, placeAsync(s, req))
		await(t, "a worker to take the request", entered)
	}
	admitted = append(admitted, placeAsync(s, req)) // no worker left: it waits
	waitQueued(t, s, 1)
	_, status, err := s.Place(req)
	if err == nil || status != http.StatusTooManyRequests {
		t.Errorf("overflow: status %d err %v", status, err)
	}
	if got := reg.Counter(MetricRejected).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricRejected, got)
	}
	release()
	for i, ch := range admitted {
		if r := await(t, "an admitted request", ch); r.status != http.StatusOK {
			t.Errorf("admitted request %d: status %d err %v", i, r.status, r.err)
		}
	}
}

// TestCloseRejectsQueued: after Close, admissions answer 503, and a second
// Close is a no-op (TestCloseUnderLoad covers what Close does to requests
// it finds queued and in flight).
func TestCloseRejectsQueued(t *testing.T) {
	s, _, _ := newTestService(t, nil)
	s.Close()
	_, status, err := s.Place(PlaceRequest{Apps: fourApps()})
	if err == nil || status != http.StatusServiceUnavailable {
		t.Errorf("after close: status %d err %v", status, err)
	}
	s.Close() // idempotent
}

// TestCloseUnderLoad: Close answers 503 to what is still queued, lets the
// searches already on a worker finish with 200, refuses everything after,
// and leaves no goroutine of the service behind.
func TestCloseUnderLoad(t *testing.T) {
	http.DefaultClient.CloseIdleConnections() // other tests' keep-alives are not this one's goroutines
	time.Sleep(10 * time.Millisecond)
	before := runtime.NumGoroutine()

	s, err := New(Config{NumHosts: 8, SlotsPerHost: 2, Seed: 42, Iterations: 60, Workers: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, entered, release := gatedBackend("quiet")
	defer release()
	s.SetBackend(b)

	req := PlaceRequest{Apps: []AppDemand{{App: "quiet", Units: 2}}}
	var inFlight, queued []<-chan placed
	for i := 0; i < 2; i++ {
		inFlight = append(inFlight, placeAsync(s, req))
		await(t, "a worker to take the request", entered)
	}
	for i := 0; i < 3; i++ {
		queued = append(queued, placeAsync(s, req))
	}
	waitQueued(t, s, 3)

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	for i, ch := range queued {
		if r := await(t, "a queued request to be refused", ch); r.status != http.StatusServiceUnavailable || r.err == nil {
			t.Errorf("queued request %d: status %d err %v, want 503", i, r.status, r.err)
		}
	}
	if _, status, err := s.Place(req); err == nil || status != http.StatusServiceUnavailable {
		t.Errorf("admission during close: status %d err %v, want 503", status, err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while searches were still in flight")
	default:
	}
	release()
	for i, ch := range inFlight {
		if r := await(t, "an in-flight request to finish", ch); r.status != http.StatusOK || r.err != nil {
			t.Errorf("in-flight request %d: status %d err %v, want 200", i, r.status, r.err)
		}
	}
	await(t, "Close to return", closed)

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpanTreePerRequest: one placement produces the admit → wait →
// search → respond causal tree under a serve.place root carrying the
// request ID.
func TestSpanTreePerRequest(t *testing.T) {
	s, _, tr := newTestService(t, nil)
	mustPlace(t, s, PlaceRequest{ID: "traced-1", Apps: fourApps()})

	spans := tr.Spans()
	var root telemetry.SpanRecord
	byName := map[string]telemetry.SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
		if sp.Name == "serve.place" {
			root = sp
		}
	}
	if root.ID == 0 {
		t.Fatalf("no serve.place root among %d spans", len(spans))
	}
	if root.Request != "traced-1" {
		t.Errorf("root request = %q", root.Request)
	}
	for _, stage := range []string{"admit", "wait", "search", "respond"} {
		sp, ok := byName[stage]
		if !ok {
			t.Errorf("missing %s span", stage)
			continue
		}
		if sp.ParentID != root.ID {
			t.Errorf("%s parent = %d, want root %d", stage, sp.ParentID, root.ID)
		}
		if sp.Request != "traced-1" {
			t.Errorf("%s request = %q", stage, sp.Request)
		}
	}
}

// TestMetricsAndQuantiles: the serve_* family is populated after traffic,
// including the interpolated latency percentile gauges every read of the
// registry derives.
func TestMetricsAndQuantiles(t *testing.T) {
	s, reg, _ := newTestService(t, nil)
	for i := 0; i < 3; i++ {
		mustPlace(t, s, PlaceRequest{Apps: fourApps(), Seed: int64(i + 1)})
	}
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.Label(MetricRequests, "endpoint", "place")]; got != 3 {
		t.Errorf("place requests = %d, want 3", got)
	}
	// The combine memo sits under every search the service ran; its
	// traffic was previously invisible to the serve_* family.
	if snap.Counters[metricCombineMisses] == 0 {
		t.Error("combine-memo misses not accounted")
	}
	if snap.Counters[metricCombineHits] == 0 {
		t.Error("combine-memo hits not accounted")
	}
	for _, h := range []string{histQueue, histService, HistE2E} {
		if snap.Histograms[h].Count == 0 {
			t.Errorf("histogram %s empty", h)
		}
		for _, suffix := range []string{"_p50", "_p95", "_p99"} {
			v, ok := snap.Gauges[h+suffix]
			if !ok {
				t.Errorf("missing quantile gauge %s%s", h, suffix)
				continue
			}
			if v < 0 {
				t.Errorf("%s%s = %v", h, suffix, v)
			}
		}
	}
	p50, p99 := snap.Gauges[HistE2E+"_p50"], snap.Gauges[HistE2E+"_p99"]
	if p50 > p99 {
		t.Errorf("e2e p50 %v above p99 %v", p50, p99)
	}
}

// TestSLOFeedAndBreach: with a breach-on-everything SLO wired in, serving
// traffic raises the burn-rate gauge and publishes slo_breach events.
func TestSLOFeedAndBreach(t *testing.T) {
	bus := obs.NewBus(64)
	var tracker *obs.SLOTracker
	s, reg, _ := newTestService(t, func(c *Config) {
		var err error
		tracker, err = obs.NewSLOTracker(obs.SLOConfig{
			TargetSeconds: 1e-9, Budget: 0.05, Window: 16, MinRequests: 1, Cooldown: 0,
		}, c.Telemetry, bus)
		if err != nil {
			t.Fatal(err)
		}
		c.SLO = tracker
	})
	ch, cancel := bus.Subscribe()
	defer cancel()
	mustPlace(t, s, PlaceRequest{Apps: fourApps()})

	if burn := reg.Gauge(obs.SLOMetricBurnRate).Value(); burn <= 0 {
		t.Errorf("burn rate = %v, want > 0", burn)
	}
	select {
	case ev := <-ch:
		if ev.Type != obs.EventSLOBreach {
			t.Errorf("event type = %q", ev.Type)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no slo_breach event published")
	}
	if snap := tracker.Snapshot(); snap.Requests == 0 || snap.Breaches == 0 {
		t.Errorf("tracker snapshot = %+v", snap)
	}
}

// panicPred panics on every prediction.
type panicPred struct{}

func (panicPred) PredictPressures([]float64) (float64, error) { panic("predictor blew up") }

// TestPanicContainedToItsRequest: a panic under one request's search — on
// its pool worker, or on a restart worker below it — is that request's
// 500 and one serve_panics_total, while healthy requests are in flight on
// the other workers; those are answered exactly as an unloaded service
// answers them, and the service goes on serving.
func TestPanicContainedToItsRequest(t *testing.T) {
	good := []PlaceRequest{
		{ID: "g0", Apps: fourApps()},
		{ID: "g1", Apps: fourApps(), QoSApp: "sens", QoSMax: 1.5},
		{ID: "g2", Apps: []AppDemand{{App: "sens", Units: 4}, {App: "noisy1", Units: 6}}, Restarts: 2},
	}
	want := referenceBodies(t, good)

	s, reg, _ := newTestService(t, func(c *Config) { c.Workers = 4 })
	b, entered, release := gatedBackend("quiet")
	defer release()
	b.Predictors["boom"], b.Scores["boom"] = panicPred{}, 3
	s.SetBackend(b)

	// g0 and g1 place "quiet" and so are held inside their searches, on
	// two of the four workers, for as long as the panics take.
	var healthy []<-chan placed
	for _, req := range good[:2] {
		healthy = append(healthy, placeAsync(s, req))
		await(t, "a healthy request to reach its search", entered)
	}
	boom := []AppDemand{{App: "sens", Units: 4}, {App: "boom", Units: 4}}
	p0, p1 := placeAsync(s, PlaceRequest{ID: "p0", Apps: boom}), placeAsync(s, PlaceRequest{ID: "p1", Apps: boom, Restarts: 3})
	for i, ch := range []<-chan placed{p0, p1} {
		if r := await(t, "a panicking request to be answered", ch); r.err == nil || r.status != http.StatusInternalServerError {
			t.Errorf("p%d: status %d err %v, want 500", i, r.status, r.err)
		}
	}
	healthy = append(healthy, placeAsync(s, good[2])) // on a worker a panic just unwound
	release()
	for i, ch := range healthy {
		if r := await(t, "a healthy request", ch); r.err != nil || r.status != http.StatusOK || string(r.body) != string(want[i]) {
			t.Errorf("%s beside a panicking request: status %d err %v\n got %s\nwant %s",
				good[i].ID, r.status, r.err, r.body, want[i])
		}
	}
	if got := reg.Counter(metricPanics).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", metricPanics, got)
	}
	// The service is still serving.
	if got, _ := json.Marshal(mustPlace(t, s, good[0])); string(got) != string(want[0]) {
		t.Errorf("after the panics: got %s\nwant %s", got, want[0])
	}
}
