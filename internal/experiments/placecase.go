package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/placement"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// qosBound encodes the paper's guarantee: 80% of solo-run performance,
// i.e. a normalized execution time of at most 1/0.8.
const qosBound = 1.25

// mix is one 4-application workload combination (Table 5 / Figure 10).
// Duplicate names are allowed (the paper's HM3 runs M.Gems twice) and are
// disambiguated with a "(2)" suffix.
type mix struct {
	id    string
	names [4]string
}

// figure10Mixes are the four QoS case-study mixes; the first entry of each
// is the QoS-protected application (italic in the paper's figure).
func figure10Mixes() []mix {
	return []mix{
		{"a", [4]string{"M.lmps", "C.libq", "H.KM", "N.cg"}},
		{"b", [4]string{"M.milc", "C.mcf", "S.WC", "M.zeus"}},
		{"c", [4]string{"N.mg", "C.libq", "S.PR", "M.lesl"}},
		{"d", [4]string{"M.Gems", "C.xbmk", "H.KM", "M.lu"}},
	}
}

// table5Mixes are the paper's ten throughput mixes, grouped by the
// expected best-worst performance difference.
func table5Mixes() []mix {
	return []mix{
		{"HW1", [4]string{"N.mg", "N.cg", "H.KM", "M.lmps"}},
		{"HW2", [4]string{"M.zeus", "C.libq", "H.KM", "M.Gems"}},
		{"HW3", [4]string{"C.libq", "N.cg", "H.KM", "S.PR"}},
		{"HM1", [4]string{"M.zeus", "S.WC", "M.Gems", "S.PR"}},
		{"HM2", [4]string{"H.KM", "M.Gems", "M.lu", "C.xbmk"}},
		{"HM3", [4]string{"S.CF", "H.KM", "M.Gems", "M.Gems"}},
		{"MW", [4]string{"N.mg", "H.KM", "H.KM", "M.lesl"}},
		{"MM", [4]string{"C.cact", "C.libq", "M.Gems", "M.lmps"}},
		{"MB", [4]string{"N.cg", "M.milc", "C.libq", "C.xbmk"}},
		{"L", [4]string{"M.lesl", "M.zeus", "M.zeus", "N.mg"}},
	}
}

// unitsPerApp is Section 5's sizing: 16 VMs = 4 units per application.
const unitsPerApp = 4

// mixSetup resolves a mix into placement demands, a workload registry
// (with duplicate names aliased), and the placement-name -> base-name map.
func mixSetup(m mix) (demands []cluster.Demand, reg map[string]workloads.Workload, base map[string]string, err error) {
	reg = map[string]workloads.Workload{}
	base = map[string]string{}
	counts := map[string]int{}
	for _, name := range m.names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, nil, nil, err
		}
		counts[name]++
		alias := name
		if counts[name] > 1 {
			alias = fmt.Sprintf("%s(%d)", name, counts[name])
			w.Name = alias
			w.App.Name = alias
		}
		demands = append(demands, cluster.Demand{App: alias, Units: unitsPerApp})
		reg[alias] = w
		base[alias] = name
	}
	return demands, reg, base, nil
}

// mixRequest builds a placement.Request with either the interference model
// or the naive baseline as the predictor family.
func (l *Lab) mixRequest(m mix, naive bool) (placement.Request, map[string]workloads.Workload, error) {
	demands, reg, base, err := mixSetup(m)
	if err != nil {
		return placement.Request{}, nil, err
	}
	preds := map[string]core.Predictor{}
	scores := map[string]float64{}
	for alias, bn := range base {
		var pred core.Predictor
		var score float64
		if naive {
			nm, err := l.Naive(bn)
			if err != nil {
				return placement.Request{}, nil, err
			}
			pred, score = nm, nm.BubbleScore
		} else {
			mdl, err := l.Model(bn)
			if err != nil {
				return placement.Request{}, nil, err
			}
			pred, score = mdl, mdl.BubbleScore
		}
		preds[alias] = pred
		scores[alias] = score
	}
	req := placement.Request{
		NumHosts:     8,
		SlotsPerHost: 2,
		Demands:      demands,
		Predictors:   preds,
		Scores:       scores,
	}
	return req, reg, nil
}

// weightedNormalizedSum evaluates a placement on the simulator and returns
// the unit-weighted sum of normalized runtimes plus the per-app outcomes.
func (l *Lab) weightedNormalizedSum(p *cluster.Placement, reg map[string]workloads.Workload) (float64, map[string]measure.AppOutcome, error) {
	out, err := l.Env.RunPlacement(p, reg)
	if err != nil {
		return 0, nil, err
	}
	// Accumulate in sorted-app order: float sums are order-sensitive, and
	// the golden corpus needs byte-identical output across runs.
	var xs, ws []float64
	for _, a := range p.Apps() {
		xs = append(xs, out[a].Normalized)
		ws = append(ws, float64(p.UnitsOf(a)))
	}
	wm, err := stats.WeightedMean(xs, ws)
	if err != nil {
		return 0, nil, err
	}
	return wm * 4, out, nil // sum over the 4 equally weighted apps
}

// Figure10 regenerates the QoS-aware placement study: per mix, whether the
// QoS of the protected application holds under the proposed model and
// under the naive model, plus the weighted runtime sums.
func (l *Lab) Figure10() (Output, error) {
	qosTab := report.NewTable("Figure 10 (left): QoS status of the protected application (normalized time; bound 1.25)",
		"mix", "QoS app", "proposed: actual", "proposed OK", "naive: actual", "naive OK")
	sumTab := report.NewTable("Figure 10 (right): sum of normalized runtimes (4 apps, unit-weighted)",
		"mix", "proposed", "naive")
	for _, m := range figure10Mixes() {
		target := m.names[0]
		run := func(naive bool) (float64, float64, error) {
			req, reg, err := l.mixRequest(m, naive)
			if err != nil {
				return 0, 0, err
			}
			cfg := l.PlacementConfig(l.Cfg.Seed + int64(len(m.id)))
			cfg.Iterations = l.Cfg.placementIters()
			cfg.QoS = &placement.QoS{App: target, MaxNormalized: qosBound}
			res, err := placement.Search(req, cfg)
			if err != nil {
				return 0, 0, err
			}
			sum, out, err := l.weightedNormalizedSum(res.Placement, reg)
			if err != nil {
				return 0, 0, err
			}
			return out[target].Normalized, sum, nil
		}
		propActual, propSum, err := run(false)
		if err != nil {
			return Output{}, err
		}
		naiveActual, naiveSum, err := run(true)
		if err != nil {
			return Output{}, err
		}
		ok := func(v float64) string {
			if v <= qosBound {
				return "yes"
			}
			return "VIOLATED"
		}
		qosTab.MustAddRow(m.id, target, report.Norm(propActual), ok(propActual),
			report.Norm(naiveActual), ok(naiveActual))
		sumTab.MustAddRow(m.id, report.F(propSum, 3), report.F(naiveSum, 3))
	}
	return Output{
		ID:     "Figure 10",
		Title:  "QoS-aware placement: proposed model vs. naive model",
		Tables: []*report.Table{qosTab, sumTab},
		Notes: []string{
			"The proposed model keeps the protected app within 80% of its solo performance;",
			"the naive model, blind to interference propagation, can violate the bound.",
		},
	}, nil
}

// Figure11Table5 regenerates the throughput placement study over the ten
// mixes of Table 5: weighted-average speedup over the worst placement for
// the model-driven best placement, the naive-model best, and random
// placements. From the same simulated outcomes it also quantifies the
// conclusion's energy use-case: the share of CPU node-time each placement
// wastes to interference, and how much of the worst placement's waste the
// model-driven placement eliminates.
func (l *Lab) Figure11Table5() (Output, error) { return l.figure11() }

func (l *Lab) figure11() (Output, error) {
	mixTab := report.NewTable("Table 5: selected workload combinations", "mix", "workloads")
	perf := report.NewTable("Figure 11: weighted speedup over the worst placement",
		"mix", "best (model)", "naive best", "random (5 avg)", "worst")
	wasteTab := report.NewTable(
		"Energy: wasted node-time per placement (fraction of total CPU time; simulated)",
		"mix", "best (model)", "random (5 avg)", "worst", "waste eliminated")
	mixes := table5Mixes()
	if l.Cfg.Quick {
		mixes = []mix{mixes[0], mixes[5], mixes[9]} // one per difference class
	}
	var improvements, savings []float64
	for _, m := range mixes {
		mixTab.MustAddRow(m.id, strings.Join(m.names[:], " "))
		req, reg, err := l.mixRequest(m, false)
		if err != nil {
			return Output{}, err
		}
		naiveReq, _, err := l.mixRequest(m, true)
		if err != nil {
			return Output{}, err
		}
		iters := l.Cfg.placementIters()

		bestCfg := l.PlacementConfig(l.Cfg.Seed + 17)
		bestCfg.Iterations = iters
		best, err := placement.Search(req, bestCfg)
		if err != nil {
			return Output{}, err
		}
		worstCfg := l.PlacementConfig(l.Cfg.Seed + 29)
		worstCfg.Iterations = iters
		worstCfg.Goal = placement.Worst
		worst, err := placement.Search(req, worstCfg)
		if err != nil {
			return Output{}, err
		}
		naiveCfg := l.PlacementConfig(l.Cfg.Seed + 31)
		naiveCfg.Iterations = iters
		naiveBest, err := placement.Search(naiveReq, naiveCfg)
		if err != nil {
			return Output{}, err
		}
		randoms, err := placement.RandomOutcome(req, 5, l.Cfg.Seed+41, nil)
		if err != nil {
			return Output{}, err
		}

		// Evaluate all placements on the simulator; speedups are
		// computed per app against the worst placement, then averaged
		// with unit weights (all equal here).
		_, worstOut, err := l.weightedNormalizedSum(worst.Placement, reg)
		if err != nil {
			return Output{}, err
		}
		speedup := func(p *cluster.Placement) (float64, wasted, error) {
			_, out, err := l.weightedNormalizedSum(p, reg)
			if err != nil {
				return 0, wasted{}, err
			}
			var sp []float64
			for _, a := range p.Apps() {
				sp = append(sp, worstOut[a].Normalized/out[a].Normalized)
			}
			return stats.Mean(sp), waste(p, out), nil
		}
		bestSp, bestW, err := speedup(best.Placement)
		if err != nil {
			return Output{}, err
		}
		naiveSp, _, err := speedup(naiveBest.Placement)
		if err != nil {
			return Output{}, err
		}
		var rndSum, rndWaste float64
		for _, r := range randoms {
			s, w, err := speedup(r.Placement)
			if err != nil {
				return Output{}, err
			}
			rndSum += s
			rndWaste += w.fraction()
		}
		rndSp := rndSum / float64(len(randoms))
		perf.MustAddRow(m.id, report.F(bestSp, 3), report.F(naiveSp, 3), report.F(rndSp, 3), "1.000")
		improvements = append(improvements, 100*(bestSp-1))

		worstW := waste(worst.Placement, worstOut)
		saved := worstW.eliminatedBy(bestW)
		savings = append(savings, 100*saved)
		wasteTab.MustAddRow(m.id, report.F(bestW.fraction(), 3), report.F(rndWaste/float64(len(randoms)), 3),
			report.F(worstW.fraction(), 3), report.Pct(100*saved))
	}
	return Output{
		ID:     "Table 5 / Figure 11",
		Title:  "Placement for performance: best/naive/random vs. worst",
		Tables: []*report.Table{mixTab, perf, wasteTab},
		Notes: []string{
			fmt.Sprintf("Mean best-over-worst improvement across mixes: %.1f%%.", stats.Mean(improvements)),
			"Expected shape: large gains for the high-difference (HW*/HM*) mixes, small for L;",
			"the naive best is erratic — sometimes near the model, sometimes near random.",
			fmt.Sprintf("Mean waste eliminated by the model-driven placement vs. the worst: %.0f%% (energy use-case; not a paper artifact).",
				stats.Mean(savings)),
		},
	}, nil
}

// wasted is the energy account of one placement in node-time, normalized
// to one unit's solo run: an app on u units at normalized time T uses u
// useful node-time and wastes u*(T-1) to interference.
type wasted struct{ useful, waste float64 }

// fraction is the wasted share of the total node-time.
func (w wasted) fraction() float64 { return w.waste / (w.useful + w.waste) }

// eliminatedBy is the share of w's waste that better avoids: 1 when
// better wastes nothing, negative when it wastes more, 0 when w wastes
// nothing.
func (w wasted) eliminatedBy(better wasted) float64 {
	if w.waste <= 0 {
		return 0
	}
	return (w.waste - better.waste) / w.waste
}

// waste accounts placement p from its simulated per-app outcomes, in
// sorted-app order. A normalized time below 1 is measurement noise and
// counts as 1: it cannot represent negative energy.
func waste(p *cluster.Placement, out map[string]measure.AppOutcome) wasted {
	var w wasted
	for _, a := range p.Apps() {
		units := float64(p.UnitsOf(a))
		w.useful += units
		w.waste += units * (max(out[a].Normalized, 1) - 1)
	}
	return w
}
