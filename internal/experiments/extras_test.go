package experiments

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestAblationsRunner(t *testing.T) {
	r, err := quickLab(t).ablations()
	if err != nil {
		t.Fatal(err)
	}

	// Ablation 1: the engine decides the propagation class. With one
	// slowed node the BSP variant must sit far above the TaskPool
	// variant of the same memory profile. Rows: BSP, Wavefront, TaskPool.
	sync := r.syncPattern.values
	if bspK1, poolK1 := sync[0][1], sync[2][1]; bspK1 < poolK1+0.5 {
		t.Errorf("engine swap should flip the class: BSP k1=%v vs TaskPool k1=%v", bspK1, poolK1)
	}
	// Wavefront grows linearly: k=8 increment is much larger than k=1.
	if waveK1, waveK8 := sync[1][1], sync[1][8]; (waveK8 - 1) < 3*(waveK1-1) {
		t.Errorf("wavefront should be proportional: k1=%v k8=%v", waveK1, waveK8)
	}

	// Ablation 3: without sync drag the curve is flat after the jump;
	// with drag it grows. Rows: drag 0, 0.12, 0.30.
	drag := r.syncDrag.values
	flat1, flat8, grow8 := drag[0][1], drag[0][8], drag[2][8]
	if flat8-flat1 > 0.02 {
		t.Errorf("zero-drag curve should be flat after the jump: %v -> %v", flat1, flat8)
	}
	if grow8 <= flat8 {
		t.Errorf("high drag should raise the k=8 point: %v vs %v", grow8, flat8)
	}

	// Ablation 5: the model must beat naive on the high-propagation app
	// (M.milc, the first row) and the naive model may win on the
	// proportional one.
	if milc := r.modelVsNaive[0]; milc.model >= milc.naive {
		t.Errorf("model %v should beat naive %v on M.milc", milc.model, milc.naive)
	}
}

func TestMultiwayRunner(t *testing.T) {
	r, err := quickLab(t).multiway()
	if err != nil {
		t.Fatal(err)
	}
	if len(r) < 2 {
		t.Fatalf("rows = %d", len(r))
	}
	comb, sum, max := r.meanErr(0), r.meanErr(1), r.meanErr(2)
	if comb >= sum || comb >= max {
		t.Errorf("the Section 4.4 combination (%.1f%%) should beat sum (%.1f%%) and max (%.1f%%)", comb, sum, max)
	}
	if comb > 10 {
		t.Errorf("combined-score error %.1f%% too high", comb)
	}
}

// TestMultiwayMeasurementsCounted: the multiway runner's own 4-core env
// is set up like every other site, so an instrumented lab counts its
// measurements.
func TestMultiwayMeasurementsCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	l, err := NewLab(Config{Seed: 4, Quick: true, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.multiway(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counters["measure_runs_total"]; n == 0 {
		t.Error("multiway alone recorded no measure_runs_total")
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
