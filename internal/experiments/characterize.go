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

// figure2Result is the motivating example: M.lmps's normalized time with
// C.libq on k of its 8 nodes, as the naive proportional model predicts it
// and as measured, indexed by k.
type figure2Result struct{ naive, real []float64 }

// figure2 regenerates the motivating example: M.lmps (lammps) co-running
// with C.libq instances on 0-8 of its 8 nodes, comparing the naive
// proportional expectation against the measured execution time.
func (l *Lab) figure2() (*figure2Result, error) {
	lmps, err := workloads.ByName("M.lmps")
	if err != nil {
		return nil, err
	}
	libq, err := workloads.ByName("C.libq")
	if err != nil {
		return nil, err
	}
	naive, err := l.private.naive("M.lmps")
	if err != nil {
		return nil, err
	}
	libqScore, err := core.MeasureBubbleScore(l.Env, libq)
	if err != nil {
		return nil, err
	}
	solo, err := l.Env.Solo(lmps, 8)
	if err != nil {
		return nil, err
	}
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
		return nil, err
	}
	r := &figure2Result{}
	for k := 0; k <= 8; k++ {
		real, err := handles[k].Result()
		if err != nil {
			return nil, err
		}
		pressures := make([]float64, 8)
		for i := 0; i < k; i++ {
			pressures[i] = libqScore
		}
		pred, err := naive.PredictPressures(pressures)
		if err != nil {
			return nil, err
		}
		r.naive = append(r.naive, pred)
		r.real = append(r.real, real/solo)
	}
	return r, nil
}

func (r figure2Result) output() Output {
	tb := report.NewTable(
		"Figure 2: normalized execution time of 126.lammps vs. number of nodes running 462.libquantum",
		"interfering nodes", "naive model", "real")
	for k := range r.real {
		tb.MustAddRow(fmt.Sprint(k), report.Norm(r.naive[k]), report.Norm(r.real[k]))
	}
	return Output{
		ID:     "Figure 2",
		Title:  "Motivating example: naive proportional model vs. reality",
		Tables: []*report.Table{tb},
		Notes: []string{
			"Expected shape: the real curve jumps at 1 interfering node and then grows slowly;",
			"the naive model grows linearly and badly underestimates isolated interference.",
		},
	}
}

// curves is one propagation table: normalized execution time per row (a
// bubble pressure or a variant) and per count of interfering nodes.
type curves struct {
	title, corner string
	rows          []string
	counts        []int
	values        [][]float64 // [row][count]
}

func (c curves) table() *report.Table {
	headers := append(make([]string, 0, 1+len(c.counts)), c.corner)
	for _, n := range c.counts {
		headers = append(headers, fmt.Sprint(n))
	}
	tb := report.NewTable(c.title, headers...)
	for i, label := range c.rows {
		row := []string{label}
		for _, v := range c.values[i] {
			row = append(row, report.Norm(v))
		}
		tb.MustAddRow(row...)
	}
	return tb
}

// tables renders one table per curves.
func tables(cs []curves) []*report.Table {
	var out []*report.Table
	for _, c := range cs {
		out = append(out, c.table())
	}
	return out
}

// figure3Result is Figure 3's curves, one per distributed workload in
// Table 1 order.
type figure3Result []curves

// figure3 regenerates the propagation curves: for each distributed
// workload, normalized execution time vs. number of interfering nodes at
// each bubble pressure.
func (l *Lab) figure3() (figure3Result, error) {
	return l.propagationCurves(l.private, privateCounts, distributedNames(), "Figure 3: %s normalized execution time")
}

func (r figure3Result) output() Output {
	return Output{
		ID:     "Figure 3",
		Title:  "Interference propagation: execution time vs. interfering nodes per bubble pressure",
		Tables: tables(r),
		Notes: []string{
			"High-propagation apps (most MPI/NPB codes) jump at the first interfering node and then flatten;",
			"M.Gems grows roughly linearly; H.KM and S.PR stay close to 1.",
		},
	}
}

// privateCounts are the interfering-node counts of the 8-node private
// cluster's propagation curves.
var privateCounts = []int{0, 1, 2, 3, 4, 5, 6, 7, 8}

// propagationCurves measures one curves table per named workload across
// all of the site's hosts: a row per bubble pressure, a column per count of
// interfering nodes. titleFmt formats each table's title from the
// workload name.
func (l *Lab) propagationCurves(s *site, counts []int, names []string, titleFmt string) ([]curves, error) {
	pressures := l.Cfg.pressures()
	var rows []string
	for _, p := range pressures {
		rows = append(rows, report.F(p, 0))
	}
	out := make([]curves, 0, len(names))
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		values, err := propagation(s.env, w, s.build.Nodes, counts, pressures)
		if err != nil {
			return nil, err
		}
		out = append(out, curves{fmt.Sprintf(titleFmt, name), "pressure \\ nodes", rows, counts, values})
	}
	return out, nil
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

// appSelection is one application's heterogeneity policy search.
type appSelection struct {
	app string
	sel hetero.Selection
}

// meanBestErr is the mean best-policy error (percent) over rs.
func meanBestErr(rs []appSelection) float64 {
	var errs []float64
	for _, r := range rs {
		errs = append(errs, r.sel.BestStats.AvgPct)
	}
	return stats.Mean(errs)
}

// bestPolicyTable renders each app's best policy with its mean error and
// spread; paper, when non-nil, adds the paper's pick as a last column.
func bestPolicyTable(title string, rs []appSelection, paper map[string]hetero.Policy) *report.Table {
	headers := []string{"workload", "best policy", "avg error(%)", "std dev"}
	if paper != nil {
		headers = append(headers, "paper best")
	}
	tb := report.NewTable(title, headers...)
	for _, r := range rs {
		st := r.sel.BestStats
		row := append(make([]string, 0, len(headers)), r.app, r.sel.Best.String(), report.F(st.AvgPct, 2), report.F(st.StdPct, 2))
		if paper != nil {
			row = append(row, paper[r.app].String())
		}
		tb.MustAddRow(row...)
	}
	return tb
}

// paperBestPolicy is the paper's Table 2 column.
var paperBestPolicy = map[string]hetero.Policy{
	"M.milc": hetero.NPlus1Max, "M.lesl": hetero.NPlus1Max, "M.Gems": hetero.Interpolate,
	"M.lmps": hetero.NPlus1Max, "M.zeus": hetero.NPlus1Max, "M.lu": hetero.NPlus1Max,
	"N.cg": hetero.NPlus1Max, "N.mg": hetero.NPlus1Max, "H.KM": hetero.Interpolate,
	"S.WC": hetero.NMax, "S.CF": hetero.NMax, "S.PR": hetero.NPlus1Max,
}

// table2Result is the heterogeneity study: each distributed app's policy
// search.
type table2Result []appSelection

// table2 regenerates the heterogeneity study: per-policy error rates over
// sampled heterogeneous configurations (Figure 4) and the best policy per
// application (Table 2).
func (l *Lab) table2() (table2Result, error) {
	names := distributedNames()
	r := make(table2Result, 0, len(names))
	for _, name := range names {
		m, err := l.Model(name)
		if err != nil {
			return nil, err
		}
		r = append(r, appSelection{name, m.Selection})
	}
	return r, nil
}

func (r table2Result) output() Output {
	sel := r[0].sel
	fig4 := report.NewTable("Figure 4: heterogeneity conversion error by policy (avg% [min..max])",
		"workload", "N MAX", "N+1 MAX", "ALL MAX", "INTERPOLATE")
	for _, a := range r {
		row := []string{a.app}
		for _, p := range hetero.AllPolicies() {
			st := a.sel.Stats[p]
			row = append(row, fmt.Sprintf("%s [%s..%s]", report.F(st.AvgPct, 2), report.F(st.MinPct, 1), report.F(st.MaxPct, 1)))
		}
		fig4.MustAddRow(row...)
	}
	return Output{
		ID:     "Table 2 / Figure 4",
		Title:  "Heterogeneity mapping policies",
		Tables: []*report.Table{fig4, bestPolicyTable("Table 2: best heterogeneity mapping policy", r, paperBestPolicy)},
		Notes: []string{
			fmt.Sprintf("Sampled %d of %d heterogeneous configurations per app;", sel.Samples, sel.Total),
			fmt.Sprintf("sampling margin of error ~ +/-%.2f pp at 99%% confidence for sd=5pp.", stats.MarginOfError99(5.0, sel.Samples, sel.Total)),
			"Expected shape: max-family policies win for BSP codes, INTERPOLATE for M.Gems/H.KM.",
		},
	}
}

// profilers are Table 3's profiling algorithms, in presentation order.
var profilers = []struct {
	name string
	run  func(profile.BatchMeasurer, *sim.RNG) (profile.Result, error)
}{
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

// table3Result is the profiling comparison: per profiler and per app, the
// mean absolute error against exhaustive profiling and the share of
// settings measured, both in percent.
type table3Result struct {
	apps      []string
	err, cost [][]float64 // [profiler][app]
}

// table3 regenerates the profiling-algorithm comparison: cost and accuracy
// of binary-brute, binary-optimized, random-30% and random-50% against the
// exhaustive ground truth.
func (l *Lab) table3() (*table3Result, error) {
	r := &table3Result{apps: distributedNames(), err: make([][]float64, len(profilers)), cost: make([][]float64, len(profilers))}
	if l.Cfg.Quick {
		r.apps = r.apps[:4]
	}
	rng := sim.NewRNG(l.Cfg.Seed).Stream("table3")
	for _, name := range r.apps {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		meas := core.PropagationBatchMeasurer(l.Env, w, 8)
		truth, err := profile.FullBruteBatch(meas, bubble.MaxPressure, 8)
		if err != nil {
			return nil, err
		}
		for i, a := range profilers {
			res, err := a.run(meas, rng.Stream(a.name).Stream(name))
			if err != nil {
				return nil, err
			}
			e, err := res.Matrix.MeanAbsError(truth.Matrix)
			if err != nil {
				return nil, err
			}
			r.err[i] = append(r.err[i], 100*e)
			r.cost[i] = append(r.cost[i], res.CostPct())
		}
	}
	return r, nil
}

func (r table3Result) output() Output {
	headers := []string{"workload"}
	for _, a := range profilers {
		headers = append(headers, a.name)
	}
	perAppErr := report.NewTable("Figure 6: prediction error per workload (%)", headers...)
	perAppCost := report.NewTable("Figure 7: profiling cost per workload (% of settings measured)", headers...)
	for j, app := range r.apps {
		errRow, costRow := []string{app}, []string{app}
		for i := range profilers {
			errRow = append(errRow, report.F(r.err[i][j], 2))
			costRow = append(costRow, report.F(r.cost[i][j], 1))
		}
		perAppErr.MustAddRow(errRow...)
		perAppCost.MustAddRow(costRow...)
	}
	tab3 := report.NewTable("Table 3: profiling cost and accuracy (averages)",
		"prediction algorithm", "average cost(%)", "average error(%)")
	for i, a := range profilers {
		tab3.MustAddRow(a.name, report.F(stats.Mean(r.cost[i]), 2), report.F(stats.Mean(r.err[i]), 2))
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
	}
}

// table4Result is every workload's measured bubble score.
type table4Result struct {
	ws     []workloads.Workload
	scores []float64
}

// table4 regenerates the bubble scores of all 18 workloads.
func (l *Lab) table4() (*table4Result, error) {
	r := &table4Result{ws: workloads.All()}
	for _, w := range r.ws {
		score, err := core.MeasureBubbleScore(l.Env, w)
		if err != nil {
			return nil, err
		}
		r.scores = append(r.scores, score)
	}
	return r, nil
}

func (r table4Result) output() Output {
	tb := report.NewTable("Table 4: bubble scores", "workload", "measured score", "paper score")
	for i, w := range r.ws {
		tb.MustAddRow(w.Name, report.F(r.scores[i], 2), report.F(w.TargetBubbleScore, 1))
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
	}
}
