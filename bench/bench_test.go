package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSupportedPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		got  float64
	}{
		{n: 1000, want: 99, got: 99}, // exactly 10 beyond p99
		{n: 999, want: 99, got: 95},  // 9 beyond p99
		{n: 200, want: 99, got: 95},  // exactly 10 beyond p95
		{n: 199, want: 99, got: 90},  // 9 beyond p95, 19 beyond p90
		{n: 99, want: 99, got: 50},   // 9 beyond p90
		{n: 7, want: 99, got: 50},    // the median is always reportable
		{n: 100000, want: 95, got: 95},
	}
	for _, c := range cases {
		if got := supportedPercentile(c.n, c.want); got != c.got {
			t.Errorf("supportedPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.got)
		}
		if p := supportedPercentile(c.n, c.want); p != 50 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g reported with only %d samples beyond it", c.n, p, beyond(c.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 100: 100} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
}

// Python: statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4)
// -> [3.5, 13.5, 31.0]
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %g %g %g, want 3.5 13.5 31", q1, q2, q3)
	}
}

func marshalStream(t *testing.T, seed int64, client, n int) []byte {
	t.Helper()
	apps := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p", "q", "r"}
	st := newStream(apps, seed, client)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		req := st.nextPlace()
		units := 0
		for _, a := range req.Apps {
			units += a.Units
		}
		if units > paperHosts*paperSlots {
			t.Fatalf("request %d asks for %d units, cluster has %d", i, units, paperHosts*paperSlots)
		}
		if req.Seed == 0 {
			t.Fatalf("request %d has no explicit seed", i)
		}
		seen := map[string]bool{}
		for _, a := range req.Apps {
			if seen[a.App] {
				t.Fatalf("request %d repeats app %q", i, a.App)
			}
			seen[a.App] = true
		}
		if (req.QoSApp != "") != (req.QoSMax != 0) || (req.QoSApp != "" && !seen[req.QoSApp]) {
			t.Fatalf("request %d has an inconsistent QoS bound: %+v", i, req)
		}
		st.nextIsWhatIf()
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestStreamIsAFunctionOfSeedAndClient(t *testing.T) {
	a, b := marshalStream(t, 7, 0, 2000), marshalStream(t, 7, 0, 2000)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and client produced different request streams")
	}
	if bytes.Equal(a, marshalStream(t, 8, 0, 2000)) {
		t.Fatal("different seeds produced the same request stream")
	}
	if bytes.Equal(a, marshalStream(t, 7, 1, 2000)) {
		t.Fatal("different clients produced the same request stream")
	}
}

func TestVerifyGrid(t *testing.T) {
	want := []appDemand{{App: "a", Units: 2}, {App: "b", Units: 1}}
	grid := [][]string{{"a", "b"}, {"a", ""}}
	if err := verifyGrid(grid, want, 2, 2, nil); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
	bad := map[string][][]string{
		"lost unit":  {{"a", "b"}, {"", ""}},
		"extra app":  {{"a", "b"}, {"a", "c"}},
		"wrong rows": {{"a", "b"}},
		"wrong cols": {{"a", "b", "a"}, {"", "", ""}},
	}
	for name, g := range bad {
		if verifyGrid(g, want, 2, 2, nil) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if verifyGrid(grid, want, 2, 2, map[int]bool{1: true}) == nil {
		t.Error("unit on a down host accepted")
	}
	three := [][]string{{"a", "b", "c"}}
	if verifyGrid(three, []appDemand{{"a", 1}, {"b", 1}, {"c", 1}}, 1, 3, nil) == nil {
		t.Error("three apps on one host accepted")
	}
}

// fakeDaemon answers the scrapes driveLoad makes and, while healthy is
// set, every placement with a valid packed grid; otherwise 500.
func fakeDaemon(healthy *atomic.Bool) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/metrics":
			io.WriteString(w, "serve_rejected_total 0\n")
		case strings.HasPrefix(r.URL.Path, "/debug/pprof/heap"):
			io.WriteString(w, "# TotalAlloc = 1\n")
		case r.URL.Path == "/api/place" && healthy.Load():
			var req placeRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			resp := placeResponse{Endpoint: "place", Objective: 1, Predicted: map[string]float64{}}
			resp.Placement = make([][]string, paperHosts)
			for h := range resp.Placement {
				resp.Placement[h] = make([]string, paperSlots)
			}
			slot := 0
			for _, a := range req.Apps {
				resp.Predicted[a.App] = 1
				for u := 0; u < a.Units; u++ {
					resp.Placement[slot/paperSlots][slot%paperSlots] = a.App
					slot++
				}
			}
			json.NewEncoder(w).Encode(resp)
		default:
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
}

// driveBounded runs driveLoad and fails the test if it does not return.
func driveBounded(t *testing.T, base string, window time.Duration, want int) httpLoad {
	t.Helper()
	done := make(chan httpLoad, 1) // one send; the test may have given up
	go func() {
		load, err := driveLoad(&daemon{base: base}, []string{"a", "b", "c", "d"}, 1, 2, false, 10*time.Millisecond, window, want)
		if err != nil {
			t.Error(err)
		}
		done <- load
	}()
	select {
	case load := <-done:
		return load
	case <-time.After(5 * time.Second):
		t.Fatal("driveLoad did not return")
		return httpLoad{}
	}
}

func TestLoadEndsWhenTheDaemonOnlyFails(t *testing.T) {
	var healthy atomic.Bool
	srv := fakeDaemon(&healthy)
	defer srv.Close()
	load := driveBounded(t, srv.URL, 50*time.Millisecond, 100)
	if load.attempted == 0 || load.failed != load.attempted {
		t.Errorf("failed %d of %d attempted, want all of at least one", load.failed, load.attempted)
	}
	if len(load.samples) != 0 || load.q.n != 0 {
		t.Errorf("%d samples and %d quality answers from a daemon that only fails", len(load.samples), load.q.n)
	}
}

func TestTopUpEndsAtTheFirstFailure(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	srv := fakeDaemon(&healthy)
	defer srv.Close()
	const window = 50 * time.Millisecond
	// The daemon fails well into the top-up of a sample no window can fill.
	time.AfterFunc(window+50*time.Millisecond, func() { healthy.Store(false) })
	load := driveBounded(t, srv.URL, window, 1<<30)
	if len(load.samples) == 0 || load.q.n == 0 || load.q.n >= 2<<30 {
		t.Errorf("%d samples, %d quality answers", len(load.samples), load.q.n)
	}
	// Each caller's top-up ends at its first failed request.
	if load.failed < 1 || load.failed > 2 {
		t.Errorf("failed = %d, want 1 or 2 (one per caller)", load.failed)
	}
	// Failed and re-sent requests are attempts but never samples.
	if verified := load.attempted - load.failed - load.attempted/(resendEvery+1); len(load.samples) > verified {
		t.Errorf("%d samples from at most %d verified answers", len(load.samples), verified)
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "obs.http", StartNs: 0, EndNs: 1000},
		{ID: 2, Name: "serve.place", Parent: 1, StartNs: 1000, EndNs: 1700},
		{ID: 3, Name: "placement.search", Parent: 2, StartNs: 1700, EndNs: 2200},
		{ID: 4, Name: "placement.search_setup", Parent: 3, StartNs: 2200, EndNs: 2300},
		{ID: 5, Name: "obs.http", StartNs: 3000, EndNs: 3400},
		{ID: 6, Name: "serve.whatif", Parent: 5, StartNs: 3400, EndNs: 3500},
		{ID: 7, Name: "orphan", Parent: 99, StartNs: 0, EndNs: 5},
	}
	want := []int64{300, 200, 400, 100, 300, 100, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	grouped := byName(spans, selfTimes(spans))
	if !reflect.DeepEqual(grouped["obs.http"], []float64{300, 300}) {
		t.Fatalf("byName grouped obs.http as %v", grouped["obs.http"])
	}
}

func TestRecorderOffKeepsNoSpans(t *testing.T) {
	on, off := newRecorder(true), newRecorder(false)
	for _, r := range []*recorder{on, off} {
		if _, _, err := r.call("x", 0, 1, func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if len(on.spans) != 1 || len(off.spans) != 0 {
		t.Fatalf("spans kept: on=%d off=%d, want 1 and 0", len(on.spans), len(off.spans))
	}
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// The metric names the code measures and the names BENCHMARK.json declares
// must be the same sets, so results.json carries every declared metric and
// nothing else.
func TestMeasuredMetricsAreExactlyTheDeclaredOnes(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for name := range (untraced{}).metrics() {
		e2e = append(e2e, name)
	}
	sort.Strings(e2e)
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, e2e) {
		t.Errorf("end_to_end declares %v, code measures %v", got, e2e)
	}
	layers := append([]string(nil), layerMetrics()...)
	sort.Strings(layers)
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, layers) {
		t.Errorf("per_layer declares %v, code measures %v", got, layers)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !valid.MatchString(d.Name) {
			t.Errorf("metric name %q is not of the allowed form", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	hasSetup := false
	for _, d := range spec.EndToEnd {
		// 0.25 is the most the benchmark contract lets a bound be; the
		// bounds themselves come from measured spread (README.md).
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(declared, workloadOrder) {
		t.Errorf("workloads declared %v, code runs %v", declared, workloadOrder)
	}
}

func TestAttachUnitsRejectsAnyDifference(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "s"}}
	got, err := attachUnits(defs, map[string]float64{"a": 1, "b": 2})
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] != (reported{Value: 1, Unit: "ms"}) || got["b"] != (reported{Value: 2, Unit: "s"}) {
		t.Fatalf("attachUnits = %v", got)
	}
	if _, err := attachUnits(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := attachUnits(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}

func TestParseMetrics(t *testing.T) {
	body := []byte("# HELP x y\n# TYPE x counter\nserve_batches_total 12\nserve_requests_total{endpoint=\"place\"} 34\nbad line\n")
	got := parseMetrics(body)
	if got["serve_batches_total"] != 12 || got[`serve_requests_total{endpoint="place"}`] != 34 || len(got) != 2 {
		t.Fatalf("parseMetrics = %v", got)
	}
}
