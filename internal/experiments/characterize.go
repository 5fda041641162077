package experiments

import (
	"fmt"

	"repro/internal/bubble"
	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/measure"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Figure2 regenerates the motivating example: M.lmps (lammps) co-running
// with C.libq instances on 0-8 of its 8 nodes, comparing the naive
// proportional expectation against the measured execution time.
func (l *Lab) Figure2() (Output, error) { return l.figure2() }

func (l *Lab) figure2() (Output, error) {
	lmps, err := workloads.ByName("M.lmps")
	if err != nil {
		return Output{}, err
	}
	libq, err := workloads.ByName("C.libq")
	if err != nil {
		return Output{}, err
	}
	naive, err := l.Naive("M.lmps")
	if err != nil {
		return Output{}, err
	}
	libqScore, err := core.MeasureBubbleScore(l.Env, libq)
	if err != nil {
		return Output{}, err
	}
	solo, err := l.Env.Solo(lmps, 8)
	if err != nil {
		return Output{}, err
	}
	tb := report.NewTable(
		"Figure 2: normalized execution time of 126.lammps vs. number of nodes running 462.libquantum",
		"interfering nodes", "naive model", "real")
	b := l.Env.NewBatch()
	handles := make([]*measure.Value, 9)
	for k := 0; k <= 8; k++ {
		coNodes := make([]int, k)
		for i := range coNodes {
			coNodes[i] = i
		}
		handles[k] = b.CoRunner(lmps, libq, 8, coNodes)
	}
	if err := b.Run(); err != nil {
		return Output{}, err
	}
	for k := 0; k <= 8; k++ {
		real, err := handles[k].Result()
		if err != nil {
			return Output{}, err
		}
		pressures := make([]float64, 8)
		for i := 0; i < k; i++ {
			pressures[i] = libqScore
		}
		pred, err := naive.PredictPressures(pressures)
		if err != nil {
			return Output{}, err
		}
		tb.MustAddRow(fmt.Sprint(k), report.Norm(pred), report.Norm(real/solo))
	}
	return Output{
		ID:     "Figure 2",
		Title:  "Motivating example: naive proportional model vs. reality",
		Tables: []*report.Table{tb},
		Notes: []string{
			"Expected shape: the real curve jumps at 1 interfering node and then grows slowly;",
			"the naive model grows linearly and badly underestimates isolated interference.",
		},
	}, nil
}

// Figure3 regenerates the propagation curves: for each distributed
// workload, normalized execution time vs. number of interfering nodes at
// each bubble pressure.
func (l *Lab) Figure3() (Output, error) {
	tables, err := l.figure3(l.Env, 8, privateCounts, distributedNames(), "Figure 3: %s normalized execution time")
	if err != nil {
		return Output{}, err
	}
	return Output{
		ID:     "Figure 3",
		Title:  "Interference propagation: execution time vs. interfering nodes per bubble pressure",
		Tables: tables,
		Notes: []string{
			"High-propagation apps (most MPI/NPB codes) jump at the first interfering node and then flatten;",
			"M.Gems grows roughly linearly; H.KM and S.PR stay close to 1.",
		},
	}, nil
}

// privateCounts are the interfering-node counts of the 8-node private
// cluster's propagation curves.
var privateCounts = []int{0, 1, 2, 3, 4, 5, 6, 7, 8}

// figure3 measures one propagation table per named workload on env's
// nodes-node cluster: a row per bubble pressure, a column per count of
// interfering nodes. titleFmt formats each table's title from the
// workload name.
func (l *Lab) figure3(env *measure.Env, nodes int, counts []int, names []string, titleFmt string) ([]*report.Table, error) {
	pressures := l.Cfg.pressures()
	headers := []string{"pressure \\ nodes"}
	for _, c := range counts {
		headers = append(headers, fmt.Sprint(c))
	}
	var tables []*report.Table
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		curves, err := propagation(env, w, nodes, counts, pressures)
		if err != nil {
			return nil, err
		}
		tb := report.NewTable(fmt.Sprintf(titleFmt, name), headers...)
		for pi, p := range pressures {
			row := []string{report.F(p, 0)}
			for _, v := range curves[pi] {
				row = append(row, report.Norm(v))
			}
			tb.MustAddRow(row...)
		}
		tables = append(tables, tb)
	}
	return tables, nil
}

// propagation measures w's normalized execution time on a nodes-node
// cluster with counts[ci] nodes interfered at pressures[pi], as one
// measurement batch; the result is indexed [pi][ci].
func propagation(env *measure.Env, w workloads.Workload, nodes int, counts []int, pressures []float64) ([][]float64, error) {
	b := env.NewBatch()
	handles := make([][]*measure.Value, len(pressures))
	for pi, p := range pressures {
		handles[pi] = make([]*measure.Value, len(counts))
		for ci, c := range counts {
			ps, err := measure.HomogeneousPressures(nodes, c, p)
			if err != nil {
				return nil, err
			}
			handles[pi][ci] = b.Normalized(w, ps)
		}
	}
	if err := b.Run(); err != nil {
		return nil, err
	}
	out := make([][]float64, len(pressures))
	for pi := range handles {
		out[pi] = make([]float64, len(counts))
		for ci, h := range handles[pi] {
			v, err := h.Result()
			if err != nil {
				return nil, err
			}
			out[pi][ci] = v
		}
	}
	return out, nil
}

// Table2Figure4 regenerates the heterogeneity study: per-policy error
// rates over sampled heterogeneous configurations (Figure 4) and the best
// policy per application (Table 2).
func (l *Lab) Table2Figure4() (Output, error) {
	fig4 := report.NewTable("Figure 4: heterogeneity conversion error by policy (avg% [min..max])",
		"workload", "N MAX", "N+1 MAX", "ALL MAX", "INTERPOLATE")
	tab2 := report.NewTable("Table 2: best heterogeneity mapping policy",
		"workload", "best policy", "avg error(%)", "std dev", "paper best")
	paperBest := map[string]string{
		"M.milc": "N+1 MAX", "M.lesl": "N+1 MAX", "M.Gems": "INTERPOLATE",
		"M.lmps": "N+1 MAX", "M.zeus": "N+1 MAX", "M.lu": "N+1 MAX",
		"N.cg": "N+1 MAX", "N.mg": "N+1 MAX", "H.KM": "INTERPOLATE",
		"S.WC": "N MAX", "S.CF": "N MAX", "S.PR": "N+1 MAX",
	}
	for _, name := range distributedNames() {
		m, err := l.Model(name)
		if err != nil {
			return Output{}, err
		}
		sel := m.Selection
		cell := func(p hetero.Policy) string {
			st := sel.Stats[p]
			return fmt.Sprintf("%s [%s..%s]", report.F(st.AvgPct, 2), report.F(st.MinPct, 1), report.F(st.MaxPct, 1))
		}
		fig4.MustAddRow(name, cell(hetero.NMax), cell(hetero.NPlus1Max), cell(hetero.AllMax), cell(hetero.Interpolate))
		tab2.MustAddRow(name, sel.Best.String(),
			report.F(sel.BestStats.AvgPct, 2), report.F(sel.BestStats.StdPct, 2), paperBest[name])
	}
	margin := stats.MarginOfError99(5.0, l.Cfg.heteroSamples(), hetero.TotalConfigs(8, bubble.MaxPressure))
	return Output{
		ID:     "Table 2 / Figure 4",
		Title:  "Heterogeneity mapping policies",
		Tables: []*report.Table{fig4, tab2},
		Notes: []string{
			fmt.Sprintf("Sampled %d of %d heterogeneous configurations per app;", l.Cfg.heteroSamples(), hetero.TotalConfigs(8, bubble.MaxPressure)),
			fmt.Sprintf("sampling margin of error ~ +/-%.2f pp at 99%% confidence for sd=5pp.", margin),
			"Expected shape: max-family policies win for BSP codes, INTERPOLATE for M.Gems/H.KM.",
		},
	}, nil
}

// Table3Figures67 regenerates the profiling-algorithm comparison: cost and
// accuracy of binary-brute, binary-optimized, random-30% and random-50%
// against the exhaustive ground truth.
func (l *Lab) Table3Figures67() (Output, error) {
	type algo struct {
		name string
		run  func(profile.BatchMeasurer, *sim.RNG) (profile.Result, error)
	}
	algos := []algo{
		{"binary-optimized", func(m profile.BatchMeasurer, _ *sim.RNG) (profile.Result, error) {
			return profile.BinaryOptimizedBatch(m, bubble.MaxPressure, 8, 0)
		}},
		{"binary-brute", func(m profile.BatchMeasurer, _ *sim.RNG) (profile.Result, error) {
			return profile.BinaryBruteBatch(m, bubble.MaxPressure, 8, 0)
		}},
		{"random-50%", func(m profile.BatchMeasurer, r *sim.RNG) (profile.Result, error) {
			return profile.RandomFracBatch(m, bubble.MaxPressure, 8, 0.50, r)
		}},
		{"random-30%", func(m profile.BatchMeasurer, r *sim.RNG) (profile.Result, error) {
			return profile.RandomFracBatch(m, bubble.MaxPressure, 8, 0.30, r)
		}},
	}
	perAppErr := report.NewTable("Figure 6: prediction error per workload (%)",
		"workload", algos[0].name, algos[1].name, algos[2].name, algos[3].name)
	perAppCost := report.NewTable("Figure 7: profiling cost per workload (% of settings measured)",
		"workload", algos[0].name, algos[1].name, algos[2].name, algos[3].name)
	sumErr := map[string]float64{}
	sumCost := map[string]float64{}

	names := distributedNames()
	if l.Cfg.Quick {
		names = names[:4]
	}
	rng := sim.NewRNG(l.Cfg.Seed).Stream("table3")
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return Output{}, err
		}
		meas := core.PropagationBatchMeasurer(l.Env, w, 8)
		truth, err := profile.FullBruteBatch(meas, bubble.MaxPressure, 8)
		if err != nil {
			return Output{}, err
		}
		errRow := []string{name}
		costRow := []string{name}
		for _, a := range algos {
			res, err := a.run(meas, rng.Stream(a.name).Stream(name))
			if err != nil {
				return Output{}, err
			}
			e, err := res.Matrix.MeanAbsError(truth.Matrix)
			if err != nil {
				return Output{}, err
			}
			errRow = append(errRow, report.F(100*e, 2))
			costRow = append(costRow, report.F(res.CostPct(), 1))
			sumErr[a.name] += 100 * e
			sumCost[a.name] += res.CostPct()
		}
		perAppErr.MustAddRow(errRow...)
		perAppCost.MustAddRow(costRow...)
	}
	tab3 := report.NewTable("Table 3: profiling cost and accuracy (averages)",
		"prediction algorithm", "average cost(%)", "average error(%)")
	n := float64(len(names))
	for _, a := range algos {
		tab3.MustAddRow(a.name, report.F(sumCost[a.name]/n, 2), report.F(sumErr[a.name]/n, 2))
	}
	return Output{
		ID:     "Table 3 / Figures 6-7",
		Title:  "Profiling algorithms: cost vs. accuracy",
		Tables: []*report.Table{tab3, perAppErr, perAppCost},
		Notes: []string{
			"Expected shape: binary-brute is the most accurate but most expensive;",
			"binary-optimized costs roughly a third of binary-brute at moderate error;",
			"random-30% is cheap but markedly less accurate.",
		},
	}, nil
}

// Table4 regenerates the bubble scores of all 18 workloads.
func (l *Lab) Table4() (Output, error) {
	tb := report.NewTable("Table 4: bubble scores", "workload", "measured score", "paper score")
	for _, w := range workloads.All() {
		score, err := core.MeasureBubbleScore(l.Env, w)
		if err != nil {
			return Output{}, err
		}
		tb.MustAddRow(w.Name, report.F(score, 2), report.F(w.TargetBubbleScore, 1))
	}
	return Output{
		ID:     "Table 4",
		Title:  "Interference generated by each workload, on the bubble scale",
		Tables: []*report.Table{tb},
		Notes: []string{
			"Scores measured by co-running the probe with each workload and inverting the",
			"probe's reference response curve; C.libq generates the most pressure, the",
			"Hadoop/Spark workloads the least — matching the paper's ordering.",
		},
	}, nil
}
