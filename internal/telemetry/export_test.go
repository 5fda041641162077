package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenRegistry builds a registry with one metric of every kind, with
// labeled and unlabeled variants, so the exporters' full surface is pinned.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("events_total").Add(42)
	reg.Counter(Label("runs_total", "alg", "binary-optimized")).Add(7)
	reg.Counter(Label("runs_total", "alg", "full-brute")).Add(3)
	reg.Gauge("queue_high_water").Set(19)
	reg.Gauge(Label("cost_pct", "workload", "M.milc")).Set(23.4)
	h := reg.Histogram("run_seconds", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 8} {
		h.Observe(v)
	}
	hl := reg.Histogram(Label("run_seconds", "engine", "bsp"), []float64{1, 2})
	hl.Observe(1.5)
	reg.SetHelp("events_total", "Total events recorded by the golden registry.")
	reg.SetHelp("runs_total", "Profiling runs by algorithm.")
	reg.SetHelp("run_seconds", "Run wall time in seconds.")
	return reg
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run Golden -update ./internal/telemetry`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestGoldenJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "snapshot.golden.json"), buf.Bytes())
}

func TestGoldenPrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "metrics.golden.prom"), buf.Bytes())
}

// nastyRegistry builds a registry whose metric names abuse the label
// segment — illegal characters in label names, quotes/newlines/backslashes
// in values, unquoted values, and unterminated quotes — so the exporter's
// sanitization is pinned by a golden file.
func nastyRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter(Label("jobs_total", "mix/variant", "a\"b")).Add(3)
	reg.Counter(`jobs_total{policy=model driven,qos=yes}`).Add(2)
	reg.Counter("events_total{src=\"line1\nline2\"}").Add(1)
	reg.Gauge(`weird gauge{bad key!="x\y",ok="v"}`).Set(7)
	reg.Gauge(`trailing{a="unterminated`).Set(1)
	h := reg.Histogram(Label("run_seconds", "engine name", `q"uote`), []float64{1})
	h.Observe(0.5)
	// Help text with a newline and a backslash must escape per the
	// exposition format rather than corrupting the frame.
	reg.SetHelp("jobs_total", "line1\nline2 with \\backslash")
	return reg
}

func TestGoldenLabelSanitization(t *testing.T) {
	var buf bytes.Buffer
	if err := nastyRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "labels.golden.prom"), buf.Bytes())
}

func TestPromLabelBlock(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{`alg="binary-optimized"`, `alg="binary-optimized"`},
		{`a="x",b="y"`, `a="x",b="y"`},
		{`bad key!="v"`, `bad_key_="v"`},
		{`k=unquoted`, `k="unquoted"`},
		{`k="a,b",j="c"`, `k="a,b",j="c"`},
		{`k="q\"uote"`, `k="q\"uote"`},
		{`k="unterminated`, `k="unterminated"`},
		{`9lead="v"`, `_lead="v"`},
		{`novalue`, ``},
		{``, ``},
	} {
		if got := promLabelBlock(tc.in); got != tc.want {
			t.Errorf("promLabelBlock(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestRegisterBuildInfo(t *testing.T) {
	if got := RegisterBuildInfo(nil); got != "" {
		t.Errorf("RegisterBuildInfo(nil) = %q, want empty", got)
	}
	reg := NewRegistry()
	name := RegisterBuildInfo(reg)
	if !strings.HasPrefix(name, BuildInfoMetric+"{") {
		t.Fatalf("metric name %q lacks the %s label block", name, BuildInfoMetric)
	}
	for _, label := range []string{"go_version=", "module=", "module_version=", "revision="} {
		if !strings.Contains(name, label) {
			t.Errorf("metric name %q missing label %q", name, label)
		}
	}
	if v := reg.Snapshot().Gauges[name]; v != 1 {
		t.Errorf("gauge %q = %v, want 1", name, v)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE build_info gauge") {
		t.Errorf("Prometheus output missing build_info:\n%s", buf.String())
	}
}

func TestWriteJSONFileStdout(t *testing.T) {
	// "-" must write to stdout and leave no file named "-" behind.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	werr := WriteJSONFile("-", map[string]int{"x": 1})
	w.Close()
	os.Stdout = old
	if werr != nil {
		t.Fatal(werr)
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]int
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("stdout payload is not JSON: %v", err)
	}
	if back["x"] != 1 {
		t.Errorf("round trip = %v", back)
	}
	if _, err := os.Stat("-"); !os.IsNotExist(err) {
		t.Error(`WriteJSONFile("-") created a file named "-"`)
	}
}

// TestJSONDeterministic re-encodes the same registry state twice and
// demands byte equality — the determinism the placement regression test
// builds on.
func TestJSONDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	reg := goldenRegistry()
	if err := reg.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two snapshots of the same state encode differently")
	}
}

func TestRunReportRoundTrip(t *testing.T) {
	reg := goldenRegistry()
	tr := NewTracer(4)
	clk := &fixedClock{t: time.Unix(5000, 0), step: time.Millisecond}
	tr.SetNow(clk.now)
	tr.StartSpan("build").End()

	rep := NewRunReport("placer", 2016, []string{"-apps", "M.milc"})
	metrics := filepath.Join(t.TempDir(), "out.json")
	trace := filepath.Join(t.TempDir(), "trace.json")
	if err := Emit(rep, reg, tr, metrics, trace); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if back.Tool != "placer" || back.Seed != 2016 {
		t.Errorf("round trip lost identity: %+v", back)
	}
	if back.SpansTotal != 1 {
		t.Errorf("SpansTotal = %d, want 1", back.SpansTotal)
	}
	if back.Metrics.Counters["events_total"] != 42 {
		t.Errorf("counters did not survive the round trip: %v", back.Metrics.Counters)
	}

	rawT, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var tb TraceReport
	if err := json.Unmarshal(rawT, &tb); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if tb.Total != 1 || tb.Retained != 1 || len(tb.Spans) != 1 {
		t.Errorf("trace report = %+v, want one span", tb)
	}
	if tb.Spans[0].Name != "build" {
		t.Errorf("span name = %q, want build", tb.Spans[0].Name)
	}
}

// TestEmitSkipsEmptyPaths checks the flag-off path writes nothing.
func TestEmitSkipsEmptyPaths(t *testing.T) {
	rep := NewRunReport("x", 1, nil)
	if err := Emit(rep, NewRegistry(), nil, "", ""); err != nil {
		t.Fatal(err)
	}
	if rep.WallSeconds < 0 {
		t.Error("negative wall time")
	}
}

func TestSplitName(t *testing.T) {
	for _, tc := range []struct{ in, base, labels string }{
		{"plain_total", "plain_total", ""},
		{`x_total{alg="b"}`, "x_total", `alg="b"`},
		{"weird{unclosed", "weird{unclosed", ""},
	} {
		base, labels := splitName(tc.in)
		if base != tc.base || labels != tc.labels {
			t.Errorf("splitName(%q) = (%q, %q), want (%q, %q)", tc.in, base, labels, tc.base, tc.labels)
		}
	}
}
