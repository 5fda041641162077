package experiments

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hetero"
	"repro/internal/measure"
	"repro/internal/stats"
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

func TestFigure2ShapeMatchesPaper(t *testing.T) {
	r, err := quickLab(t).figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.real) != 9 {
		t.Fatalf("rows = %d, want 9 (0..8 interfering nodes)", len(r.real))
	}
	// Naive grows ~linearly; real jumps at k=1.
	naive1, naive8, real1, real8 := r.naive[1], r.naive[8], r.real[1], r.real[8]
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
	r, err := quickLab(t).figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 12 {
		t.Fatalf("curves = %d, want 12 distributed workloads", len(r))
	}
	// The highest-pressure row, at k interfering nodes.
	at := func(name string, k int) float64 {
		c := r[slices.Index(distributedNames(), name)]
		return c.values[len(c.values)-1][k]
	}
	milc1, milc8 := at("M.milc", 1), at("M.milc", 8)
	gems1, gems8 := at("M.Gems", 1), at("M.Gems", 8)
	km8 := at("H.KM", 8)
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

func TestTable2PolicySelection(t *testing.T) {
	r, err := quickLab(t).table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 12 {
		t.Fatalf("rows = %d, want 12", len(r))
	}
	policies := map[string]hetero.Policy{}
	for _, a := range r {
		policies[a.app] = a.sel.Best
		if e := a.sel.BestStats.AvgPct; e > 9 {
			t.Errorf("%s best-policy error %v%% exceeds the paper's 9%% bound", a.app, e)
		}
	}
	if policies["M.Gems"] != hetero.Interpolate {
		t.Errorf("M.Gems policy = %s, want INTERPOLATE", policies["M.Gems"])
	}
	for _, bsp := range []string{"M.milc", "M.lesl", "M.lmps", "M.zeus", "M.lu", "N.cg", "N.mg"} {
		if p := policies[bsp]; p != hetero.NMax && p != hetero.NPlus1Max {
			t.Errorf("%s policy = %s, want a max-family policy", bsp, p)
		}
	}
}

func TestTable3CostOrdering(t *testing.T) {
	r, err := quickLab(t).table3()
	if err != nil {
		t.Fatal(err)
	}
	// Profilers: binary-optimized, binary-brute, random-50%, random-30%.
	costOpt, costBrute := stats.Mean(r.cost[0]), stats.Mean(r.cost[1])
	errOpt, errBrute, err30 := stats.Mean(r.err[0]), stats.Mean(r.err[1]), stats.Mean(r.err[3])
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
	r, err := quickLab(t).table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.scores) != 18 {
		t.Fatalf("rows = %d, want 18", len(r.scores))
	}
	scores := map[string]float64{}
	for i, w := range r.ws {
		scores[w.Name] = r.scores[i]
	}
	if !(scores["C.libq"] > scores["M.milc"] && scores["M.milc"] > scores["H.KM"]) {
		t.Errorf("score ordering broken: libq=%v milc=%v km=%v",
			scores["C.libq"], scores["M.milc"], scores["H.KM"])
	}
}

func TestFigure8ValidationErrors(t *testing.T) {
	r, err := quickLab(t).figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(r) == 0 {
		t.Fatal("no validation rows")
	}
	for _, a := range r {
		if a.errs.Mean > 15 {
			t.Errorf("%s validation error %v%% too high (paper: mostly <10%%)", a.app, a.errs.Mean)
		}
	}
}

func TestFigure9GemsIsHardWithBurstyCoRunners(t *testing.T) {
	r, err := quickLab(t).figure9()
	if err != nil {
		t.Fatal(err)
	}
	errs := map[string]float64{}
	for _, p := range r.gems {
		errs[p.name] = p.errPct
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
	r, err := quickLab(t).figure10()
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 4 {
		t.Fatalf("rows = %d, want 4 mixes", len(r))
	}
	naiveViolations := 0
	for _, row := range r {
		if !row.proposed.ok() {
			t.Errorf("mix %s: proposed model violated QoS", row.mix.id)
		}
		if !row.naive.ok() {
			naiveViolations++
		}
	}
	if naiveViolations == 0 {
		t.Error("the naive model should violate QoS in at least one mix (paper's Fig. 10)")
	}
}

func TestFigure11PlacementOrdering(t *testing.T) {
	r, err := quickLab(t).figure11()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r {
		if row.best < 1 {
			t.Errorf("mix %s: best speedup %v below worst", row.mix.id, row.best)
		}
		if row.best+0.02 < row.naive {
			t.Errorf("mix %s: model best %v should not lose to naive %v", row.mix.id, row.best, row.naive)
		}
		if row.best+0.02 < row.random {
			t.Errorf("mix %s: model best %v should not lose to random %v", row.mix.id, row.best, row.random)
		}
		// The energy table: the best placement wastes no more node-time
		// than the worst, and every waste fraction is a fraction.
		if row.wasteBest > row.wasteWorst {
			t.Errorf("mix %s: best placement wastes more (%v) than worst (%v)", row.mix.id, row.wasteBest, row.wasteWorst)
		}
		for _, f := range []float64{row.wasteBest, row.wasteRandom, row.wasteWorst} {
			if f < 0 || f > 1 {
				t.Errorf("mix %s: waste fraction %v out of [0, 1]", row.mix.id, f)
			}
		}
	}
}

// TestFigure11OrderingVerdict feeds Figure 11's rendering two synthetic
// row sets: in one every high-difference mix gains more than L, as the
// paper expects, and in the other HM1 does not; the verdict must flip and
// name HM1.
func TestFigure11OrderingVerdict(t *testing.T) {
	verdict := func(hm1 float64) string {
		r := figure11Result{{mix: mix{id: "HW1"}, best: 1.30}, {mix: mix{id: "HM1"}, best: hm1}, {mix: mix{id: "L"}, best: 1.05}}
		return r.output().Notes[2]
	}
	if got := verdict(1.25); !strings.HasPrefix(got, "That holds here") {
		t.Errorf("HM1 gains 25%% over L's 5%%, verdict %q", got)
	}
	if got := verdict(1.02); !strings.HasPrefix(got, "That does not hold here") || !strings.Contains(got, "HM1 (2.0%)") {
		t.Errorf("HM1 gains 2%% under L's 5%%, verdict %q", got)
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

// TestEC2ExperimentsDegradeGracefully bounds the EC2 errors and asserts
// Table 6's claim: uncontrolled neighbours raise the mean best-policy
// error above the private cluster's.
func TestEC2ExperimentsDegradeGracefully(t *testing.T) {
	l := quickLab(t)
	t6, err := l.table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(t6.ec2) != 4 {
		t.Fatal("Table 6 should cover 4 workloads")
	}
	for _, a := range t6.ec2 {
		if e := a.sel.BestStats.AvgPct; e > 25 {
			t.Errorf("%s: EC2 policy error %v%% implausibly high", a.app, e)
		}
	}
	if ec2, private := meanBestErr(t6.ec2), meanBestErr(t6.private); ec2 <= private {
		t.Errorf("mean best-policy error on EC2 %.2f%% does not exceed the private cluster's %.2f%%", ec2, private)
	}
	f13, err := l.figure13()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f13 {
		if row.errs.Mean > 30 {
			t.Errorf("%s: EC2 validation error %v%% implausibly high", row.app, row.errs.Mean)
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
		r, err := l.figure12()
		if err != nil {
			t.Fatal(err)
		}
		if len(r) != 4 {
			t.Fatalf("seed %d: curves = %d, want 4 EC2 workloads", l.Cfg.Seed, len(r))
		}
		for _, c := range r {
			// mean averages rows (ascending in pressure) over the
			// interfering-node counts in [lo, hi].
			mean := func(rows [][]float64, lo, hi int) float64 {
				var sum float64
				var n int
				for _, row := range rows {
					for i, k := range c.counts {
						if lo <= k && k <= hi {
							sum += row[i]
							n++
						}
					}
				}
				return sum / float64(n)
			}
			last := len(c.values) - 1
			low, high := mean(c.values[:1], 1, 32), mean(c.values[last:], 1, 32)
			if high <= low {
				t.Errorf("seed %d %s: mean %.3f at the highest pressure, %.3f at the lowest", l.Cfg.Seed, c.title, high, low)
			}
			if strings.Contains(c.title, "M.Gems") {
				few, many := mean(c.values, 1, 2), mean(c.values, 24, 32)
				if many <= few {
					t.Errorf("seed %d %s: mean %.3f at 24-32 nodes, %.3f at 1-2: not proportional", l.Cfg.Seed, c.title, many, few)
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
