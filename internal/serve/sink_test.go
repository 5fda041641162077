package serve

import (
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// TestDecisionSink: every placement the service decides is handed on, by
// value, with the identity the caller saw, the result the response was
// built from and the down hosts the search avoided; a request that is
// refused decides nothing.
func TestDecisionSink(t *testing.T) {
	sunk := make(chan Decision, 4)
	s, _, _ := newTestService(t, func(c *Config) {
		c.OnDecision = func(d Decision) { sunk <- d }
	})
	b := testBackend()
	b.DownHosts = []int{6}
	s.SetBackend(b)

	if _, status, err := s.Place(PlaceRequest{Apps: []AppDemand{{App: "nobody", Units: 1}}}); err == nil {
		t.Fatalf("unknown app answered %d", status)
	}
	resp := mustPlace(t, s, PlaceRequest{Apps: fourApps()[:3]})
	d := await(t, "the decision to be handed on", sunk)
	if d.ID != resp.ID || resp.ID != fmt.Sprintf("req-%016x", d.Hash) {
		t.Errorf("sink saw id %q hash %016x, caller saw id %q", d.ID, d.Hash, resp.ID)
	}
	if got := encodePlacement(d.Result.Placement); !reflect.DeepEqual(got, resp.Placement) {
		t.Errorf("sink's placement %v, caller's %v", got, resp.Placement)
	}
	if d.Result.Objective != resp.Objective || d.Result.Evaluations != resp.Evaluations {
		t.Errorf("sink's result %+v, caller's response %+v", d.Result, resp)
	}
	if !reflect.DeepEqual(d.DownHosts, []int{6}) {
		t.Errorf("sink saw down hosts %v, want [6]", d.DownHosts)
	}
	explicit := mustPlace(t, s, PlaceRequest{ID: "mine", Apps: fourApps()[:3]})
	if d2 := await(t, "the second decision", sunk); d2.ID != "mine" || d2.Hash != d.Hash || explicit.ID != "mine" {
		t.Errorf("same content under an explicit ID: id %q hash %016x, want mine / %016x", d2.ID, d2.Hash, d.Hash)
	}
	select {
	case extra := <-sunk:
		t.Errorf("refused request was handed on: %+v", extra)
	default:
	}
}

// TestCloseWaitsForDecisionSink: the sink runs once the caller has its
// answer — a sink that blocks holds the worker and Close, not the request —
// and one that panics is counted and costs the worker nothing else.
func TestCloseWaitsForDecisionSink(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	reg := telemetry.NewRegistry()
	s, err := New(Config{
		NumHosts: 8, SlotsPerHost: 2, Seed: 42, Iterations: 60, Workers: 1, Telemetry: reg,
		OnDecision: func(d Decision) {
			if d.ID == "boom" {
				panic("sink blew up")
			}
			entered <- struct{}{}
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetBackend(testBackend())

	mustPlace(t, s, PlaceRequest{ID: "boom", Apps: fourApps()})
	mustPlace(t, s, PlaceRequest{ID: "held", Apps: fourApps()}) // the worker survived the panic
	await(t, "the sink to be entered", entered)
	if got := reg.Counter(MetricPanics).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricPanics, got)
	}

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	// Admission is refused as soon as Close has marked the service.
	for {
		if _, status, _ := s.Place(PlaceRequest{Apps: fourApps()}); status == http.StatusServiceUnavailable {
			break
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a decision was still in the sink")
	default:
	}
	close(release)
	await(t, "Close to return", closed)
}

// TestBackendDownHosts: the crashed-host set arrives with the models and is
// swapped with them.
func TestBackendDownHosts(t *testing.T) {
	s, _, _ := newTestService(t, nil)
	full := PlaceRequest{Apps: fourApps()}
	b := testBackend()
	b.DownHosts = []int{2, 5}
	s.SetBackend(b)
	if _, status, err := s.Place(full); status != http.StatusBadRequest {
		t.Errorf("16 units on 12 surviving slots: status %d err %v, want 400", status, err)
	}
	resp := mustPlace(t, s, PlaceRequest{Apps: []AppDemand{{App: "sens", Units: 6}, {App: "noisy1", Units: 6}}})
	for _, h := range b.DownHosts {
		for slot, app := range resp.Placement[h] {
			if app != "" {
				t.Errorf("%s placed on down host %d slot %d", app, h, slot)
			}
		}
	}
	b.DownHosts[0] = 7 // the service keeps its own copy
	if again := mustPlace(t, s, PlaceRequest{Apps: []AppDemand{{App: "sens", Units: 6}, {App: "noisy1", Units: 6}}}); !reflect.DeepEqual(again, resp) {
		t.Error("mutating the caller's down-host slice changed a response")
	}
	s.SetBackend(testBackend())
	mustPlace(t, s, full)
}
