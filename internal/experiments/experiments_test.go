package experiments

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hetero"
	"repro/internal/measure"
)

// The experiments are integration tests of the whole stack; they share one
// quick-mode lab to keep the suite fast.
var (
	labOnce sync.Once
	lab     *Lab
	labErr  error
)

func quickLab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() {
		lab, labErr = NewLab(Config{Seed: 2016, Quick: true})
	})
	if labErr != nil {
		t.Fatal(labErr)
	}
	return lab
}

// cellFloat parses a numeric table cell.
func cellFloat(t *testing.T, tb interface {
	Cell(int, int) (string, error)
}, row, col int) float64 {
	t.Helper()
	s, err := tb.Cell(row, col)
	if err != nil {
		t.Fatal(err)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, s, err)
	}
	return v
}

func TestFigure2ShapeMatchesPaper(t *testing.T) {
	out, err := quickLab(t).Figure2()
	if err != nil {
		t.Fatal(err)
	}
	tb := out.Tables[0]
	if tb.Rows() != 9 {
		t.Fatalf("rows = %d, want 9 (0..8 interfering nodes)", tb.Rows())
	}
	// Naive grows ~linearly; real jumps at k=1.
	naive1 := cellFloat(t, tb, 1, 1)
	naive8 := cellFloat(t, tb, 8, 1)
	real1 := cellFloat(t, tb, 1, 2)
	real8 := cellFloat(t, tb, 8, 2)
	if real1 < 1.3 {
		t.Errorf("real at k=1 = %v, want a big jump", real1)
	}
	if naive1 > 1.2 {
		t.Errorf("naive at k=1 = %v, want small linear increment", naive1)
	}
	// The real curve's remaining growth after k=1 is small relative to
	// the jump; the naive curve keeps growing linearly.
	if (real8 - real1) > (real1 - 1) {
		t.Errorf("real curve should be front-loaded: jump %v, tail growth %v", real1-1, real8-real1)
	}
	if (naive8 - naive1) < 4*(naive1-1) {
		t.Errorf("naive curve should grow linearly: first step %v, total %v", naive1-1, naive8-naive1)
	}
}

func TestFigure3PropagationClasses(t *testing.T) {
	out, err := quickLab(t).Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) != 12 {
		t.Fatalf("tables = %d, want 12 distributed workloads", len(out.Tables))
	}
	byName := map[string]*tableRef{}
	for _, tb := range out.Tables {
		for _, name := range []string{"M.milc", "M.Gems", "H.KM"} {
			if strings.Contains(tb.Title, name+" ") {
				byName[name] = &tableRef{tb}
			}
		}
	}
	// Use the highest-pressure row (last row; quick mode rows are 2,5,8).
	lastRow := 2
	milc1 := cellFloat(t, byName["M.milc"], lastRow, 2) // k=1
	milc8 := cellFloat(t, byName["M.milc"], lastRow, 9) // k=8
	gems1 := cellFloat(t, byName["M.Gems"], lastRow, 2)
	gems8 := cellFloat(t, byName["M.Gems"], lastRow, 9)
	km8 := cellFloat(t, byName["H.KM"], lastRow, 9)
	if milc1 < 1.5 || (milc8-milc1) > 0.5*(milc1-1) {
		t.Errorf("M.milc should be high-propagation: k1=%v k8=%v", milc1, milc8)
	}
	// M.Gems: roughly linear growth — k=8 increment is several times the
	// k=1 increment.
	if (gems8 - 1) < 4*(gems1-1) {
		t.Errorf("M.Gems should be proportional: k1=%v k8=%v", gems1, gems8)
	}
	if km8 > 1.25 {
		t.Errorf("H.KM should be low-propagation even at k=8: %v", km8)
	}
}

type tableRef struct {
	t interface {
		Cell(int, int) (string, error)
	}
}

func (r *tableRef) Cell(i, j int) (string, error) { return r.t.Cell(i, j) }

func TestTable2PolicySelection(t *testing.T) {
	out, err := quickLab(t).Table2Figure4()
	if err != nil {
		t.Fatal(err)
	}
	tab2 := out.Tables[1]
	if tab2.Rows() != 12 {
		t.Fatalf("rows = %d, want 12", tab2.Rows())
	}
	policies := map[string]string{}
	for r := 0; r < tab2.Rows(); r++ {
		name, _ := tab2.Cell(r, 0)
		pol, _ := tab2.Cell(r, 1)
		policies[name] = pol
		avgErr := cellFloat(t, tab2, r, 2)
		if avgErr > 9 {
			t.Errorf("%s best-policy error %v%% exceeds the paper's 9%% bound", name, avgErr)
		}
	}
	if policies["M.Gems"] != hetero.Interpolate.String() {
		t.Errorf("M.Gems policy = %s, want INTERPOLATE", policies["M.Gems"])
	}
	maxFamily := func(p string) bool { return p == "N MAX" || p == "N+1 MAX" }
	for _, bsp := range []string{"M.milc", "M.lesl", "M.lmps", "M.zeus", "M.lu", "N.cg", "N.mg"} {
		if !maxFamily(policies[bsp]) {
			t.Errorf("%s policy = %s, want a max-family policy", bsp, policies[bsp])
		}
	}
}

func TestTable3CostOrdering(t *testing.T) {
	out, err := quickLab(t).Table3Figures67()
	if err != nil {
		t.Fatal(err)
	}
	tab3 := out.Tables[0]
	// Rows: binary-optimized, binary-brute, random-50%, random-30%.
	costOpt := cellFloat(t, tab3, 0, 1)
	errOpt := cellFloat(t, tab3, 0, 2)
	costBrute := cellFloat(t, tab3, 1, 1)
	errBrute := cellFloat(t, tab3, 1, 2)
	err30 := cellFloat(t, tab3, 3, 2)
	if costOpt >= costBrute {
		t.Errorf("binary-optimized cost %v should undercut brute %v", costOpt, costBrute)
	}
	if errBrute >= errOpt {
		t.Errorf("binary-brute error %v should undercut optimized %v", errBrute, errOpt)
	}
	if err30 <= errOpt {
		t.Errorf("random-30%% error %v should exceed binary-optimized %v", err30, errOpt)
	}
	// The paper's Table 3 magnitudes: optimized around 15-25% cost,
	// brute around 50-70%.
	if costOpt < 10 || costOpt > 30 {
		t.Errorf("binary-optimized cost = %v%%, want near the paper's 18.45%%", costOpt)
	}
	if costBrute < 40 || costBrute > 80 {
		t.Errorf("binary-brute cost = %v%%, want near the paper's 59.44%%", costBrute)
	}
}

func TestTable4ScoreOrdering(t *testing.T) {
	out, err := quickLab(t).Table4()
	if err != nil {
		t.Fatal(err)
	}
	tb := out.Tables[0]
	if tb.Rows() != 18 {
		t.Fatalf("rows = %d, want 18", tb.Rows())
	}
	scores := map[string]float64{}
	for r := 0; r < tb.Rows(); r++ {
		name, _ := tb.Cell(r, 0)
		scores[name] = cellFloat(t, tb, r, 1)
	}
	if !(scores["C.libq"] > scores["M.milc"] && scores["M.milc"] > scores["H.KM"]) {
		t.Errorf("score ordering broken: libq=%v milc=%v km=%v",
			scores["C.libq"], scores["M.milc"], scores["H.KM"])
	}
}

func TestFigure8ValidationErrors(t *testing.T) {
	out, err := quickLab(t).Figure8()
	if err != nil {
		t.Fatal(err)
	}
	tb := out.Tables[0]
	if tb.Rows() == 0 {
		t.Fatal("no validation rows")
	}
	for r := 0; r < tb.Rows(); r++ {
		name, _ := tb.Cell(r, 0)
		avg := cellFloat(t, tb, r, 1)
		if avg > 15 {
			t.Errorf("%s validation error %v%% too high (paper: mostly <10%%)", name, avg)
		}
	}
}

func TestFigure9GemsIsHardWithBurstyCoRunners(t *testing.T) {
	out, err := quickLab(t).Figure9()
	if err != nil {
		t.Fatal(err)
	}
	rev := out.Tables[1]
	errs := map[string]float64{}
	for r := 0; r < rev.Rows(); r++ {
		name, _ := rev.Cell(r, 0)
		errs[name] = cellFloat(t, rev, r, 3)
	}
	// The Dom0 effect: bursty frameworks must be harder to predict for
	// M.Gems than the steady MPI/batch co-runners.
	steady := (errs["M.milc"] + errs["C.libq"]) / 2
	bursty := (errs["H.KM"] + errs["S.WC"]) / 2
	if bursty <= steady {
		t.Errorf("M.Gems should be less predictable under bursty co-runners: steady=%v bursty=%v", steady, bursty)
	}
}

func TestFigure10QoS(t *testing.T) {
	out, err := quickLab(t).Figure10()
	if err != nil {
		t.Fatal(err)
	}
	qos := out.Tables[0]
	if qos.Rows() != 4 {
		t.Fatalf("rows = %d, want 4 mixes", qos.Rows())
	}
	naiveViolations := 0
	for r := 0; r < qos.Rows(); r++ {
		propOK, _ := qos.Cell(r, 3)
		naiveOK, _ := qos.Cell(r, 5)
		if propOK != "yes" {
			mixID, _ := qos.Cell(r, 0)
			t.Errorf("mix %s: proposed model violated QoS", mixID)
		}
		if naiveOK != "yes" {
			naiveViolations++
		}
	}
	if naiveViolations == 0 {
		t.Error("the naive model should violate QoS in at least one mix (paper's Fig. 10)")
	}
}

func TestFigure11PlacementOrdering(t *testing.T) {
	out, err := quickLab(t).Figure11Table5()
	if err != nil {
		t.Fatal(err)
	}
	perf := out.Tables[1]
	for r := 0; r < perf.Rows(); r++ {
		mixID, _ := perf.Cell(r, 0)
		best := cellFloat(t, perf, r, 1)
		naive := cellFloat(t, perf, r, 2)
		random := cellFloat(t, perf, r, 3)
		if best < 1 {
			t.Errorf("mix %s: best speedup %v below worst", mixID, best)
		}
		if best+0.02 < naive {
			t.Errorf("mix %s: model best %v should not lose to naive %v", mixID, best, naive)
		}
		if best+0.02 < random {
			t.Errorf("mix %s: model best %v should not lose to random %v", mixID, best, random)
		}
	}
	// The energy table: the best placement wastes no more node-time than
	// the worst, and every waste fraction is a fraction.
	waste := out.Tables[2]
	if waste.Rows() != perf.Rows() {
		t.Fatalf("energy rows = %d, want one per mix (%d)", waste.Rows(), perf.Rows())
	}
	for r := 0; r < waste.Rows(); r++ {
		mixID, _ := waste.Cell(r, 0)
		best := cellFloat(t, waste, r, 1)
		random := cellFloat(t, waste, r, 2)
		worst := cellFloat(t, waste, r, 3)
		if best > worst {
			t.Errorf("mix %s: best placement wastes more (%v) than worst (%v)", mixID, best, worst)
		}
		for _, f := range []float64{best, random, worst} {
			if f < 0 || f > 1 {
				t.Errorf("mix %s: waste fraction %v out of [0, 1]", mixID, f)
			}
		}
	}
}

// TestWasteAccounting pins the energy table's arithmetic: an app on u
// units at normalized time T wastes u*(T-1) node-time, a time below 1
// counts as 1, and the eliminated share is relative to the worse waste.
func TestWasteAccounting(t *testing.T) {
	p, err := cluster.PackedPlacement(4, 2, []cluster.Demand{{App: "A", Units: 4}, {App: "B", Units: 4}})
	if err != nil {
		t.Fatal(err)
	}
	w := waste(p, map[string]measure.AppOutcome{"A": {Normalized: 1.5}, "B": {Normalized: 1}})
	if w.useful != 8 || w.waste != 2 || w.fraction() != 0.2 {
		t.Errorf("account = %+v (fraction %v), want useful 8, waste 2, fraction 0.2", w, w.fraction())
	}
	if noise := waste(p, map[string]measure.AppOutcome{"A": {Normalized: 0.9}, "B": {Normalized: 1}}); noise.waste != 0 {
		t.Errorf("normalized time below 1 wasted %v, want 0", noise.waste)
	}
	worse, better := wasted{useful: 8, waste: 4}, wasted{useful: 8, waste: 1}
	if got := worse.eliminatedBy(better); got != 0.75 {
		t.Errorf("eliminated = %v, want 0.75", got)
	}
	if got := better.eliminatedBy(worse); got >= 0 {
		t.Errorf("a placement wasting more eliminated %v, want < 0", got)
	}
	if got := (wasted{}).eliminatedBy(better); got != 0 {
		t.Errorf("zero-waste baseline eliminated %v, want 0", got)
	}
}

func TestEC2ExperimentsDegradeGracefully(t *testing.T) {
	l := quickLab(t)
	t6, err := l.Table6()
	if err != nil {
		t.Fatal(err)
	}
	if t6.Tables[0].Rows() != 4 {
		t.Fatal("Table 6 should cover 4 workloads")
	}
	for r := 0; r < 4; r++ {
		e := cellFloat(t, t6.Tables[0], r, 2)
		if e > 25 {
			t.Errorf("EC2 policy error %v%% implausibly high", e)
		}
	}
	f13, err := l.Figure13()
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < f13.Tables[0].Rows(); r++ {
		e := cellFloat(t, f13.Tables[0], r, 1)
		if e > 30 {
			t.Errorf("EC2 validation error %v%% implausibly high", e)
		}
	}
}

// TestFigure12Shapes asserts the two shapes of Fig. 3 that survive the
// EC2 tenants' noise at every seed of a quick lab, 1–10 and the shared
// lab's alike (at one point a single cell can read as low as 0.72):
//   - every app slows more under the highest bubble pressure than under
//     the lowest, averaged over the interfering-node counts;
//   - M.Gems, the proportional app, slows more with 24–32 interfering
//     nodes than with 1–2, averaged over the pressures.
//
// Fig. 3's third shape, the high-propagation jump at one node, does not
// survive: at some seeds M.milc grows with nodes as much as M.Gems does.
func TestFigure12Shapes(t *testing.T) {
	labs := []*Lab{quickLab(t)}
	for seed := int64(1); seed <= 10; seed++ {
		l, err := NewLab(Config{Seed: seed, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		labs = append(labs, l)
	}
	for _, l := range labs {
		out, err := l.Figure12()
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Tables) != 4 {
			t.Fatalf("seed %d: tables = %d, want 4 EC2 workloads", l.Cfg.Seed, len(out.Tables))
		}
		for _, tb := range out.Tables {
			// Columns: the pressure label, then one per interfering-node
			// count; rows ascend in pressure.
			col := map[string]int{}
			for c, h := range tb.Headers {
				col[h] = c
			}
			mean := func(rows []int, counts ...string) float64 {
				var sum float64
				for _, r := range rows {
					for _, k := range counts {
						c, ok := col[k]
						if !ok {
							t.Fatalf("%s: no column for %s interfering nodes", tb.Title, k)
						}
						sum += cellFloat(t, tb, r, c)
					}
				}
				return sum / float64(len(rows)*len(counts))
			}
			all := []int{}
			for r := 0; r < tb.Rows(); r++ {
				all = append(all, r)
			}
			interfered := []string{"1", "2", "4", "8", "16", "24", "32"}
			low, high := mean(all[:1], interfered...), mean(all[len(all)-1:], interfered...)
			if high <= low {
				t.Errorf("seed %d %s: mean %.3f at the highest pressure, %.3f at the lowest", l.Cfg.Seed, tb.Title, high, low)
			}
			if strings.Contains(tb.Title, "M.Gems") {
				few, many := mean(all, "1", "2"), mean(all, "24", "32")
				if many <= few {
					t.Errorf("seed %d %s: mean %.3f at 24-32 nodes, %.3f at 1-2: not proportional", l.Cfg.Seed, tb.Title, many, few)
				}
			}
		}
	}
}

func TestRunnersRegistry(t *testing.T) {
	rs := Runners()
	if len(rs) != 12 {
		t.Fatalf("runners = %d, want 12", len(rs))
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if seen[r.ID] {
			t.Errorf("duplicate runner %s", r.ID)
		}
		seen[r.ID] = true
	}
	if _, err := RunnerByID("figure2"); err != nil {
		t.Error(err)
	}
	if _, err := RunnerByID("nope"); err == nil {
		t.Error("unknown runner should fail")
	}
}

func TestConfigKnobs(t *testing.T) {
	q := Config{Quick: true}
	f := DefaultConfig()
	if q.reps() >= f.reps() {
		t.Error("quick mode should use fewer reps")
	}
	if q.heteroSamples() >= f.heteroSamples() {
		t.Error("quick mode should use fewer samples")
	}
	if f.heteroSamples() != 60 || f.ec2Samples() != 100 {
		t.Error("full mode should match the paper's sample counts")
	}
	if len(f.pressures()) != 8 {
		t.Error("full mode should sweep all 8 pressures")
	}
}
