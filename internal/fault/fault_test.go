package fault

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/profile"
	"repro/internal/telemetry"
)

func testPlan() Plan {
	return Plan{
		Seed: 1,
		Faults: []Fault{
			{Kind: NodeCrash, Host: 2},
			{Kind: NodeCrash, Host: 5, Round: 1},
			{Kind: NodeDegrade, Host: 1, Factor: 1.5},
			{Kind: ProfileCellLoss, Fraction: 0.2},
			{Kind: ProfilingFailure, Rate: 0.3},
		},
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	for k := range kindNames {
		raw, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Errorf("round trip %v -> %s -> %v", k, raw, back)
		}
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"meteor-strike"`), &k); err == nil {
		t.Error("unknown kind decoded without error")
	}
	if _, err := Kind(99).MarshalJSON(); err == nil {
		t.Error("unknown kind encoded without error")
	}
}

func TestPlanValidate(t *testing.T) {
	if err := testPlan().Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := []Plan{
		{Seed: 1},
		{Seed: 1, Faults: []Fault{{Kind: NodeCrash, Host: -1}}},
		{Seed: 1, Faults: []Fault{{Kind: NodeDegrade, Host: 0, Factor: 1}}},
		{Seed: 1, Faults: []Fault{{Kind: ProfileCellLoss, Fraction: 0}}},
		{Seed: 1, Faults: []Fault{{Kind: ProfileCellLoss, Fraction: 1.2}}},
		{Seed: 1, Faults: []Fault{{Kind: ProfilingFailure, Rate: -0.1}}},
		{Seed: 1, Faults: []Fault{{Kind: Kind(42)}}},
		{Seed: 1, Faults: []Fault{{Kind: NodeCrash, Host: 1, Round: -1}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
	if got := testPlan().MaxHost(); got != 5 {
		t.Errorf("MaxHost = %d, want 5", got)
	}
}

func TestLoadPlan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	raw, err := json.Marshal(testPlan())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, testPlan()) {
		t.Errorf("loaded plan %+v != written plan", p)
	}
	if _, err := LoadPlan(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("loaded a nonexistent plan")
	}
	badPath := filepath.Join(dir, "bad.json")
	os.WriteFile(badPath, []byte("not json"), 0o644)
	if _, err := LoadPlan(badPath); err == nil {
		t.Error("loaded invalid JSON")
	}
	emptyPath := filepath.Join(dir, "empty.json")
	os.WriteFile(emptyPath, []byte(`{"seed":1,"faults":[]}`), 0o644)
	if _, err := LoadPlan(emptyPath); err == nil {
		t.Error("loaded an empty plan")
	}
	// A key outside the schema fails the load and names the key: a
	// simulated-time "at" (no such activation exists), a misspelling, an
	// unknown top-level key. So does anything after the plan.
	for _, c := range []struct{ body, want string }{
		{`{"seed":1,"faults":[{"kind":"node-crash","host":3,"at":120.5}]}`, `"at"`},
		{`{"seed":1,"faults":[{"kind":"node-crash","host":3,"rund":2}]}`, `"rund"`},
		{`{"sed":1,"faults":[{"kind":"node-crash","host":3}]}`, `"sed"`},
		{`{"seed":1,"faults":[{"kind":"node-crash","host":3}]} {}`, "data after the plan"},
	} {
		path := filepath.Join(dir, "unknown.json")
		os.WriteFile(path, []byte(c.body), 0o644)
		if _, err := LoadPlan(path); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %s", c.body, err, c.want)
		}
	}
}

func TestActivateByRound(t *testing.T) {
	reg := telemetry.NewRegistry()
	inj, err := New(testPlan(), reg)
	if err != nil {
		t.Fatal(err)
	}
	var events []Fault
	inj.OnEvent = func(f Fault) { events = append(events, f) }

	if got := inj.DownHosts(); len(got) != 0 {
		t.Fatalf("hosts down before activation: %v", got)
	}
	inj.Activate(0)
	if got := inj.DownHosts(); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("round 0 down hosts = %v, want [2]", got)
	}
	if !inj.IsDown(2) || inj.IsDown(5) {
		t.Error("IsDown disagrees with DownHosts after round 0")
	}
	if f := inj.DegradeFactor(1); f != 1.5 {
		t.Errorf("DegradeFactor(1) = %v, want 1.5", f)
	}
	if f := inj.DegradeFactor(0); f != 1 {
		t.Errorf("DegradeFactor(0) = %v, want 1", f)
	}
	if got := inj.CellLossFraction(); got != 0.2 {
		t.Errorf("CellLossFraction = %v, want 0.2", got)
	}
	inj.Activate(1)
	inj.Activate(1) // idempotent
	if got := inj.DownHosts(); !reflect.DeepEqual(got, []int{2, 5}) {
		t.Errorf("round 1 down hosts = %v, want [2 5]", got)
	}
	// Every plan fault fires OnEvent once at activation (triggered
	// transient failures later do not — only the metric counts those).
	if len(events) != 5 {
		t.Errorf("OnEvent fired %d times, want 5", len(events))
	}
	if v := reg.Counter(telemetry.Label(MetricInjected, "kind", "node-crash")).Value(); v != 2 {
		t.Errorf("node-crash injected counter = %d, want 2", v)
	}
	if v := reg.Gauge(MetricDownHosts).Value(); v != 2 {
		t.Errorf("down-host gauge = %v, want 2", v)
	}
}

func TestFailureHookDeterministicRate(t *testing.T) {
	plan := Plan{Seed: 3, Faults: []Fault{{Kind: ProfilingFailure, Rate: 0.3}}}
	mk := func() *Injector {
		inj, err := New(plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		inj.Activate(0)
		return inj
	}
	a, b := mk(), mk()
	fails := 0
	var trans *TransientError
	for i := 0; i < 1000; i++ {
		ea, eb := a.FailureHook("measure"), b.FailureHook("measure")
		if (ea == nil) != (eb == nil) {
			t.Fatalf("draw %d diverged between identically-seeded injectors", i)
		}
		if ea != nil {
			fails++
			if !errors.As(ea, &trans) {
				t.Fatalf("failure is %T, want *TransientError", ea)
			}
		}
	}
	// 1000 draws at rate 0.3: expect roughly 300 failures.
	if fails < 200 || fails > 400 {
		t.Errorf("%d failures out of 1000 at rate 0.3", fails)
	}
	if got := a.Counts()["profiling-failure"]; got != uint64(fails) {
		t.Errorf("Counts[profiling-failure] = %d, want %d", got, fails)
	}
	// No active failure fault: hook is a no-op.
	idle, err := New(Plan{Seed: 3, Faults: []Fault{{Kind: NodeCrash, Host: 0}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idle.Activate(0)
	if err := idle.FailureHook("measure"); err != nil {
		t.Errorf("inactive hook failed: %v", err)
	}
}

func fullMatrix(t *testing.T, pressures, nodes int) *profile.Matrix {
	t.Helper()
	m, err := profile.NewMatrix(pressures, nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pressures; i++ {
		for j := 1; j <= nodes; j++ {
			if err := m.Set(i, j, 1+0.1*float64(i)+0.05*float64(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !m.Complete() {
		t.Fatal("matrix not complete after fill")
	}
	return m
}

func TestApplyCellLossDeterministic(t *testing.T) {
	reg := telemetry.NewRegistry()
	inj, err := New(testPlan(), reg)
	if err != nil {
		t.Fatal(err)
	}
	m := fullMatrix(t, 8, 8)

	// Before activation: no loss, same matrix back.
	if got := inj.ApplyCellLoss(m, "w"); got != m {
		t.Error("idle injector cloned the matrix")
	}
	inj.Activate(0)
	lossy := inj.ApplyCellLoss(m, "w")
	if lossy == m {
		t.Fatal("active cell loss returned the original matrix")
	}
	if !m.Complete() {
		t.Error("source matrix was mutated")
	}
	if lossy.Complete() {
		t.Error("lossy clone reports complete")
	}
	dropped := 0
	for i := 0; i < m.Pressures; i++ {
		for j := 1; j <= m.Nodes; j++ {
			if lossy.CellProvenance(i, j) == profile.Unset {
				dropped++
			} else if lossy.Cell(i, j) != m.Cell(i, j) {
				t.Errorf("surviving cell (%d,%d) changed", i, j)
			}
		}
	}
	want := 13 // round(0.2 * 64)
	if dropped != want {
		t.Errorf("dropped %d cells, want %d (20%% of 64)", dropped, want)
	}
	if v := reg.Counter(MetricCellsLost).Value(); v != uint64(want) {
		t.Errorf("cells-lost counter = %d, want %d", v, want)
	}

	// Same plan, same name: identical drop pattern. Different name:
	// independent pattern.
	inj2, _ := New(testPlan(), nil)
	inj2.Activate(0)
	again := inj2.ApplyCellLoss(m, "w")
	other := inj2.ApplyCellLoss(m, "x")
	sameAsOther := true
	for i := 0; i < m.Pressures; i++ {
		for j := 1; j <= m.Nodes; j++ {
			if lossy.CellProvenance(i, j) != again.CellProvenance(i, j) {
				t.Fatalf("drop pattern not deterministic at (%d,%d)", i, j)
			}
			if again.CellProvenance(i, j) != other.CellProvenance(i, j) {
				sameAsOther = false
			}
		}
	}
	if sameAsOther {
		t.Error("different workload names lost identical cells")
	}

	// A surviving-cell query works through AtPartial; a lost-cell query
	// errors instead of panicking.
	var hitLost, hitKept bool
	for i := 0; i < m.Pressures && !(hitLost && hitKept); i++ {
		for j := 1; j <= m.Nodes; j++ {
			_, err := lossy.AtPartial(float64(i+1), float64(j))
			if lossy.CellProvenance(i, j) == profile.Unset {
				if err == nil {
					t.Errorf("lost cell (%d,%d) evaluated without error", i, j)
				}
				hitLost = true
			} else if err == nil {
				hitKept = true
			}
		}
	}
	if !hitLost || !hitKept {
		t.Error("loss pattern did not exercise both AtPartial paths")
	}
}
