package experiments

import (
	"strings"
	"testing"
)

func TestAblationsRunner(t *testing.T) {
	out, err := quickLab(t).Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) != 5 {
		t.Fatalf("ablation tables = %d, want 5", len(out.Tables))
	}

	// Ablation 1: the engine decides the propagation class. With one
	// slowed node the BSP variant must sit far above the TaskPool
	// variant of the same memory profile.
	sync := out.Tables[0]
	bspK1 := cellFloat(t, sync, 0, 2)
	poolK1 := cellFloat(t, sync, 2, 2)
	if bspK1 < poolK1+0.5 {
		t.Errorf("engine swap should flip the class: BSP k1=%v vs TaskPool k1=%v", bspK1, poolK1)
	}
	// Wavefront grows linearly: k=8 increment is much larger than k=1.
	waveK1 := cellFloat(t, sync, 1, 2)
	waveK8 := cellFloat(t, sync, 1, 9)
	if (waveK8 - 1) < 3*(waveK1-1) {
		t.Errorf("wavefront should be proportional: k1=%v k8=%v", waveK1, waveK8)
	}

	// Ablation 3: without sync drag the curve is flat after the jump;
	// with drag it grows.
	drag := out.Tables[2]
	flat1 := cellFloat(t, drag, 0, 2)
	flat8 := cellFloat(t, drag, 0, 9)
	grow8 := cellFloat(t, drag, 2, 9)
	if flat8-flat1 > 0.02 {
		t.Errorf("zero-drag curve should be flat after the jump: %v -> %v", flat1, flat8)
	}
	if grow8 <= flat8 {
		t.Errorf("high drag should raise the k=8 point: %v vs %v", grow8, flat8)
	}

	// Ablation 5: the model must beat naive on the high-propagation app
	// and the naive model may win on the proportional one.
	mvn := out.Tables[4]
	milcModel := cellFloat(t, mvn, 0, 1)
	milcNaive := cellFloat(t, mvn, 0, 2)
	if milcModel >= milcNaive {
		t.Errorf("model %v should beat naive %v on M.milc", milcModel, milcNaive)
	}
}

func TestMultiwayRunner(t *testing.T) {
	out, err := quickLab(t).Multiway()
	if err != nil {
		t.Fatal(err)
	}
	tb := out.Tables[0]
	if tb.Rows() < 2 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	var combSum, sumSum, maxSum float64
	for r := 0; r < tb.Rows(); r++ {
		combSum += cellFloat(t, tb, r, 3)
		sumSum += cellFloat(t, tb, r, 5)
		maxSum += cellFloat(t, tb, r, 7)
	}
	n := float64(tb.Rows())
	if combSum/n >= sumSum/n || combSum/n >= maxSum/n {
		t.Errorf("the Section 4.4 combination (%.1f%%) should beat sum (%.1f%%) and max (%.1f%%)",
			combSum/n, sumSum/n, maxSum/n)
	}
	if combSum/n > 10 {
		t.Errorf("combined-score error %.1f%% too high", combSum/n)
	}
}

func TestExtraRunnersRegistered(t *testing.T) {
	for _, id := range []string{"ablations", "multiway", "faults"} {
		if _, err := RunnerByID(id); err != nil {
			t.Errorf("extra runner %s unreachable: %v", id, err)
		}
	}
	// Drift is measured on the daemon's verified decisions, not simulated
	// by an extra; the energy use-case is a table of Figure 11's output.
	for _, id := range []string{"drift", "energy"} {
		if _, err := RunnerByID(id); err == nil {
			t.Errorf("RunnerByID(%q) resolved a deleted runner", id)
		}
	}
	if n := len(ExtraRunners()); n != 5 {
		t.Errorf("ExtraRunners() has %d entries, want 5", n)
	}
	// Extras stay out of the paper-artifact list.
	for _, r := range Runners() {
		if strings.HasPrefix(r.ID, "ablation") || r.ID == "multiway" {
			t.Errorf("extra runner %s leaked into paper artifacts", r.ID)
		}
	}
}
