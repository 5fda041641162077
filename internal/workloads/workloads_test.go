package workloads

import (
	"math"
	"testing"

	"repro/internal/bubble"
	"repro/internal/contention"
)

func TestAllHave18Workloads(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("Table 1 has 18 workloads, got %d", len(all))
	}
	byKind := map[Kind]int{}
	for _, w := range all {
		byKind[w.Kind]++
	}
	want := map[Kind]int{SPECMPI: 6, NPB: 2, Hadoop: 1, Spark: 3, SPECCPU: 6}
	for k, n := range want {
		if byKind[k] != n {
			t.Errorf("%v count = %d, want %d", k, byKind[k], n)
		}
	}
}

func TestAllSpecsAndProfilesValid(t *testing.T) {
	for _, w := range All() {
		if err := w.App.Validate(); err != nil {
			t.Errorf("%s app spec invalid: %v", w.Name, err)
		}
		if err := w.Prof.Validate(); err != nil {
			t.Errorf("%s profile invalid: %v", w.Name, err)
		}
		if w.MasterGenScale <= 0 || w.MasterGenScale > 1 {
			t.Errorf("%s MasterGenScale = %v", w.Name, w.MasterGenScale)
		}
		if w.TargetBubbleScore < 0 || w.TargetBubbleScore > bubble.MaxPressure {
			t.Errorf("%s target score = %v", w.Name, w.TargetBubbleScore)
		}
	}
}

func TestNamesUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Errorf("duplicate name %s", n)
		}
		seen[n] = true
		w, err := ByName(n)
		if err != nil {
			t.Errorf("ByName(%s): %v", n, err)
		}
		if w.Name != n {
			t.Errorf("ByName(%s) returned %s", n, w.Name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name should fail")
	}
	if len(Registry()) != 18 {
		t.Error("registry size mismatch")
	}
}

// TestByNameIndex: ByName looks names up in an index built once over the
// package's table. Every workload of All round-trips through its name to an
// equal value, an unknown name errors, a warm lookup allocates nothing, and
// nothing a caller does to what All or ByName returned reaches the table.
func TestByNameIndex(t *testing.T) {
	for _, w := range All() {
		got, err := ByName(w.Name)
		if err != nil || got != w {
			t.Errorf("ByName(%q) = %+v, %v; want the All entry", w.Name, got, err)
		}
	}
	for _, name := range []string{"", "m.milc", "M.milc ", "nope"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) succeeded", name)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := ByName("S.CF"); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm ByName allocates %v times, want 0", allocs)
	}
	all := All()
	all[0].Name = "changed"
	w, _ := ByName("M.milc")
	w.App.Iterations = -1
	if fresh := All(); fresh[0].Name != "M.milc" || fresh[0].App.Iterations != 30 {
		t.Errorf("a caller's copy reached the table: %+v", fresh[0])
	}
}

func TestDistributedAndBatchSplit(t *testing.T) {
	d := DistributedAll()
	b := BatchAll()
	if len(d) != 12 {
		t.Errorf("distributed count = %d, want 12", len(d))
	}
	if len(b) != 6 {
		t.Errorf("batch count = %d, want 6", len(b))
	}
	for _, w := range d {
		if !w.Distributed() {
			t.Errorf("%s misclassified", w.Name)
		}
	}
	for _, w := range b {
		if w.Distributed() {
			t.Errorf("%s misclassified", w.Name)
		}
	}
}

func TestGemsIsTheBlockedIOWavefront(t *testing.T) {
	w, err := ByName("M.Gems")
	if err != nil {
		t.Fatal(err)
	}
	if !w.Prof.BlockedIO {
		t.Error("M.Gems must be flagged BlockedIO (Section 4.3)")
	}
	if w.App.Engine.String() != "Wavefront" {
		t.Errorf("M.Gems engine = %v, want Wavefront (proportional propagation)", w.App.Engine)
	}
	// No collective usage distinguishes it from the other MPI codes.
	if w.App.AllreduceBytes != 0 || w.App.AllgatherBytes != 0 {
		t.Error("M.Gems should use no allreduce/allgather (Section 3.2)")
	}
}

func TestMasterScalingOnlyForDataFrameworks(t *testing.T) {
	for _, w := range All() {
		isFramework := w.Kind == Hadoop || w.Kind == Spark
		if isFramework && w.MasterGenScale >= 1 {
			t.Errorf("%s: framework master should generate less interference", w.Name)
		}
		if !isFramework && w.MasterGenScale != 1 {
			t.Errorf("%s: non-framework should have MasterGenScale 1", w.Name)
		}
	}
	w, _ := ByName("H.KM")
	master := w.GenProfile(0)
	slave := w.GenProfile(1)
	if master.APKI >= slave.APKI {
		t.Errorf("master APKI %v should be below slave %v", master.APKI, slave.APKI)
	}
	if slave.APKI != w.Prof.APKI {
		t.Error("slave profile should equal the base profile")
	}
}

// TestBubbleScoreCalibration asserts that the score the bubble machinery
// measures for each workload approximates the paper's Table 4 within a
// tolerance, preserving the paper's ordering extremes.
func TestBubbleScoreCalibration(t *testing.T) {
	node := contention.DefaultNode()
	scale, err := bubble.NewScale(node, 8)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 0.8
	scores := map[string]float64{}
	for _, w := range All() {
		got, err := scale.Score(w.Prof, 8)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		scores[w.Name] = got
		if math.Abs(got-w.TargetBubbleScore) > tol {
			t.Errorf("%s score = %.2f, target %.1f (tolerance %.1f)",
				w.Name, got, w.TargetBubbleScore, tol)
		}
	}
	// Ordering extremes from Table 4: C.libq generates the most pressure,
	// H.KM and S.WC the least among all workloads.
	for name, s := range scores {
		if name == "C.libq" {
			continue
		}
		if s >= scores["C.libq"] {
			t.Errorf("C.libq should generate the highest score; %s has %v >= %v",
				name, s, scores["C.libq"])
		}
	}
	if scores["H.KM"] > 1.0 || scores["S.WC"] > 1.0 {
		t.Errorf("framework scores should be small: H.KM=%v S.WC=%v",
			scores["H.KM"], scores["S.WC"])
	}
}

// TestSensitivityClasses checks that the single-node sensitivity ordering
// matches the paper's narrative: cache-hungry MPI codes suffer much more
// than the light framework workloads, while C.libq (streaming, cache
// insensitive) sits low despite generating the most pressure.
func TestSensitivityClasses(t *testing.T) {
	node := contention.DefaultNode()
	sens := map[string]float64{}
	for _, w := range All() {
		c, err := bubble.Sensitivity(node, w.Prof, 8, []float64{8})
		if err != nil {
			t.Fatal(err)
		}
		sens[w.Name] = c[0]
	}
	for _, heavy := range []string{"M.milc", "M.lesl", "M.lu", "N.cg"} {
		for _, light := range []string{"H.KM", "S.WC", "S.CF", "S.PR"} {
			if sens[heavy] <= sens[light] {
				t.Errorf("%s (%.2f) should be more sensitive than %s (%.2f)",
					heavy, sens[heavy], light, sens[light])
			}
		}
	}
	if sens["C.libq"] > 1.6 {
		t.Errorf("C.libq is a streaming code; sensitivity %.2f too high", sens["C.libq"])
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		SPECMPI: "SPEC MPI2007", NPB: "NPB", Hadoop: "Hadoop",
		Spark: "Spark", SPECCPU: "SPEC CPU2006", Kind(9): "Kind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
