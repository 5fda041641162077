package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func file(entries map[string]float64) benchFile {
	bf := benchFile{Benchtime: "1x", Benchmarks: map[string]benchEntry{}}
	for name, ns := range entries {
		bf.Benchmarks[name] = benchEntry{Iterations: 1, NsPerOp: ns}
	}
	return bf
}

func TestCompareIdentityPasses(t *testing.T) {
	bf := file(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 2000})
	diffs, regressions, onlyOld, onlyNew := compare(bf, bf, 25)
	if len(diffs) != 2 || len(regressions) != 0 || len(onlyOld) != 0 || len(onlyNew) != 0 {
		t.Errorf("identity compare: diffs=%d regressions=%d onlyOld=%v onlyNew=%v",
			len(diffs), len(regressions), onlyOld, onlyNew)
	}
	for _, d := range diffs {
		if d.Ratio != 1 {
			t.Errorf("%s ratio = %v, want 1", d.Name, d.Ratio)
		}
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	old := file(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 2000})
	regressed := file(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 3000})
	_, regressions, _, _ := compare(old, regressed, 25)
	if len(regressions) != 1 || regressions[0].Name != "BenchmarkB" {
		t.Fatalf("regressions = %+v, want BenchmarkB only", regressions)
	}
	if got := regressions[0].Ratio; got != 1.5 {
		t.Errorf("ratio = %v, want 1.5", got)
	}
	// Just inside the threshold: no regression.
	within := file(map[string]float64{"BenchmarkA": 124, "BenchmarkB": 2000})
	if _, r, _, _ := compare(old, within, 25); len(r) != 0 {
		t.Errorf("within-threshold run flagged: %+v", r)
	}
}

// fileAllocs builds a benchFile whose entries carry allocation counts.
func fileAllocs(entries map[string][2]float64) benchFile {
	bf := benchFile{Benchtime: "1x", Benchmarks: map[string]benchEntry{}}
	for name, v := range entries {
		allocs := v[1]
		bf.Benchmarks[name] = benchEntry{Iterations: 1, NsPerOp: v[0], AllocsPerOp: &allocs}
	}
	return bf
}

func TestCompareAllocsRegression(t *testing.T) {
	// An alloc-free baseline regresses on any allocation at all.
	old := fileAllocs(map[string][2]float64{"BenchmarkHot": {100, 0}})
	bad := fileAllocs(map[string][2]float64{"BenchmarkHot": {100, 2}})
	_, r, _, _ := compare(old, bad, 25)
	if len(r) != 1 || r[0].Dim != "allocs/op" {
		t.Fatalf("alloc-free regression not flagged: %+v", r)
	}
	// Unchanged counts pass.
	if _, r, _, _ := compare(old, old, 25); len(r) != 0 {
		t.Errorf("identical alloc counts flagged: %+v", r)
	}
	// Nonzero baselines get the percentage threshold.
	old = fileAllocs(map[string][2]float64{"BenchmarkHot": {100, 4}})
	grown := fileAllocs(map[string][2]float64{"BenchmarkHot": {100, 6}})
	if _, r, _, _ := compare(old, grown, 25); len(r) != 1 || r[0].Dim != "allocs/op" {
		t.Errorf("50%% alloc growth not flagged: %+v", r)
	}
	within := fileAllocs(map[string][2]float64{"BenchmarkHot": {100, 4}})
	if _, r, _, _ := compare(old, within, 25); len(r) != 0 {
		t.Errorf("within-threshold allocs flagged: %+v", r)
	}
	// Files without alloc counts (older baselines) are never alloc-gated.
	legacy := file(map[string]float64{"BenchmarkHot": 100})
	if _, r, _, _ := compare(legacy, bad, 25); len(r) != 0 {
		t.Errorf("nil-vs-present alloc counts flagged: %+v", r)
	}
	// A benchmark can regress on both dimensions at once.
	slow := fileAllocs(map[string][2]float64{"BenchmarkHot": {300, 2}})
	old = fileAllocs(map[string][2]float64{"BenchmarkHot": {100, 0}})
	_, r, _, _ = compare(old, slow, 25)
	if len(r) != 2 {
		t.Errorf("dual regression produced %d entries, want 2: %+v", len(r), r)
	}
}

func TestCompareTracksMissingAndNew(t *testing.T) {
	old := file(map[string]float64{"BenchmarkA": 100, "BenchmarkGone": 50})
	new := file(map[string]float64{"BenchmarkA": 100, "BenchmarkFresh": 10})
	_, _, onlyOld, onlyNew := compare(old, new, 25)
	if len(onlyOld) != 1 || onlyOld[0] != "BenchmarkGone" {
		t.Errorf("onlyOld = %v", onlyOld)
	}
	if len(onlyNew) != 1 || onlyNew[0] != "BenchmarkFresh" {
		t.Errorf("onlyNew = %v", onlyNew)
	}
}

// TestRegressionFixtureAgainstCommitted pins the ci.sh gate: the committed
// BENCH_telemetry.json compared against the synthetic regression fixture
// must produce regressions, and against itself must not.
func TestRegressionFixtureAgainstCommitted(t *testing.T) {
	committed, err := load(filepath.Join("..", "..", "BENCH_telemetry.json"))
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := load(filepath.Join("testdata", "bench_regression.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, r, _, _ := compare(committed, committed, 25); len(r) != 0 {
		t.Errorf("self-compare produced regressions: %+v", r)
	}
	_, r, onlyOld, _ := compare(committed, fixture, 25)
	if len(r) == 0 {
		t.Error("regression fixture produced no regressions — the CI gate would pass it")
	}
	if len(onlyOld) != 0 {
		t.Errorf("fixture dropped benchmarks: %v", onlyOld)
	}
}

// TestMissingFixtureAgainstCommitted pins the other half of the ci.sh
// gate: the committed missing-benchmark fixture must differ from the
// baseline only by dropped benchmarks (so the gate fails for the right
// reason, and -allow-missing genuinely rescues it).
func TestMissingFixtureAgainstCommitted(t *testing.T) {
	committed, err := load(filepath.Join("..", "..", "BENCH_telemetry.json"))
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := load(filepath.Join("testdata", "bench_missing.json"))
	if err != nil {
		t.Fatal(err)
	}
	_, regressions, onlyOld, onlyNew := compare(committed, fixture, 25)
	if len(onlyOld) == 0 {
		t.Error("missing fixture drops no benchmarks — the CI missing-benchmark gate would pass it")
	}
	if len(regressions) != 0 {
		t.Errorf("missing fixture also regresses %+v; -allow-missing would not rescue it and the gate tests the wrong thing", regressions)
	}
	if len(onlyNew) != 0 {
		t.Errorf("missing fixture invents benchmarks: %v", onlyNew)
	}
}

// TestAllocsFixtureAgainstCommitted pins the third ci.sh gate: the
// committed allocs-regression fixture must fail solely on allocs/op —
// the alloc-free hot paths (drift tracker ingestion, model prediction,
// delta prediction) growing allocations — with identical
// timings and no dropped benchmarks.
func TestAllocsFixtureAgainstCommitted(t *testing.T) {
	committed, err := load(filepath.Join("..", "..", "BENCH_telemetry.json"))
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := load(filepath.Join("testdata", "bench_allocs_regression.json"))
	if err != nil {
		t.Fatal(err)
	}
	_, regressions, onlyOld, onlyNew := compare(committed, fixture, 25)
	if len(onlyOld) != 0 || len(onlyNew) != 0 {
		t.Errorf("allocs fixture drops/invents benchmarks: %v / %v", onlyOld, onlyNew)
	}
	want := map[string]bool{
		"BenchmarkDriftTrackerObserve": true,
		"BenchmarkModelPredict":        true,
		"BenchmarkDeltaPredict":        true,
	}
	if len(regressions) != len(want) {
		t.Fatalf("allocs fixture regressions = %+v, want exactly %d", regressions, len(want))
	}
	for _, r := range regressions {
		if r.Dim != "allocs/op" {
			t.Errorf("regression on %s is %s, want allocs/op only", r.Name, r.Dim)
		}
		if !want[r.Name] {
			t.Errorf("unexpected regression on %s", r.Name)
		}
		delete(want, r.Name)
	}
	for name := range want {
		t.Errorf("fixture failed to flag the alloc-free baseline of %s", name)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"benchtime":"1x","benchmarks":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(empty); err == nil {
		t.Error("loaded a file with no benchmarks")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(bad); err == nil {
		t.Error("loaded invalid JSON")
	}
	if _, err := load(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("loaded a nonexistent file")
	}
	good := filepath.Join(dir, "good.json")
	raw, _ := json.Marshal(file(map[string]float64{"BenchmarkA": 1}))
	if err := os.WriteFile(good, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(good); err != nil {
		t.Errorf("rejected a valid file: %v", err)
	}
}

func TestFilterOnly(t *testing.T) {
	bf := file(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 2000, "BenchmarkC": 5})
	kept, missing := filterOnly(bf, []string{"BenchmarkB", "BenchmarkA"})
	if len(missing) != 0 {
		t.Fatalf("missing = %v, want none", missing)
	}
	if len(kept.Benchmarks) != 2 {
		t.Fatalf("kept %d benchmarks, want 2", len(kept.Benchmarks))
	}
	if _, ok := kept.Benchmarks["BenchmarkC"]; ok {
		t.Error("BenchmarkC should have been filtered out")
	}
	_, missing = filterOnly(bf, []string{"BenchmarkA", "BenchmarkZ", "BenchmarkQ"})
	if len(missing) != 2 || missing[0] != "BenchmarkQ" || missing[1] != "BenchmarkZ" {
		t.Errorf("missing = %v, want [BenchmarkQ BenchmarkZ]", missing)
	}
	// A filtered compare gates only the named benchmarks: a regression
	// elsewhere must not trip it.
	old := file(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 2000})
	regressed := file(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 9000})
	fo, _ := filterOnly(old, []string{"BenchmarkA"})
	fn, _ := filterOnly(regressed, []string{"BenchmarkA"})
	if _, regressions, _, _ := compare(fo, fn, 25); len(regressions) != 0 {
		t.Errorf("regression outside -only set leaked through: %+v", regressions)
	}
}

func TestParseOnly(t *testing.T) {
	if got := parseOnly(""); got != nil {
		t.Errorf("empty string should parse to nil, got %v", got)
	}
	got := parseOnly(" BenchmarkA, ,BenchmarkB ,")
	if len(got) != 2 || got[0] != "BenchmarkA" || got[1] != "BenchmarkB" {
		t.Errorf("parseOnly = %v", got)
	}
}
