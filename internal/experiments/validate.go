package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// pairError is one validation co-run: the model's prediction of the app's
// normalized time, the measured one, and the relative error (percent).
type pairError struct {
	name                 string // the row label: the co-runner, or the app
	pred, actual, errPct float64
}

// coRunner is one validation co-runner and its measured bubble score.
type coRunner struct {
	name  string
	w     workloads.Workload
	score float64
}

// coRunners resolves the named co-runners and measures their bubble
// scores.
func coRunners(env *measure.Env, names []string) ([]coRunner, error) {
	cos := make([]coRunner, len(names))
	for i, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		score, err := core.MeasureBubbleScore(env, w)
		if err != nil {
			return nil, err
		}
		cos[i] = coRunner{name, w, score}
	}
	return cos, nil
}

// validation is one application's planned validation co-runs: app
// co-run pairwise with every co-runner, each prediction made by app's
// model at the co-runner's bubble score on every one of `nodes` hosts —
// exactly the information a deployment would have.
type validation struct {
	model *core.Model
	cos   []coRunner
	nodes int
	pairs []*measure.PairValue
}

// planValidation submits app's pair co-runs to b, so repeated pairs
// across experiments hit the lab's shared cache.
func planValidation(b *measure.Batch, model *core.Model, appName string, cos []coRunner, nodes int) (*validation, error) {
	a, err := workloads.ByName(appName)
	if err != nil {
		return nil, err
	}
	v := &validation{model: model, cos: cos, nodes: nodes}
	for _, co := range cos {
		v.pairs = append(v.pairs, b.Pair(a, co.w, nodes))
	}
	return v, nil
}

// errors returns one pairError per co-runner, in order, once the batch
// has run.
func (v *validation) errors() ([]pairError, error) {
	out := make([]pairError, len(v.pairs))
	for i, h := range v.pairs {
		res, err := h.Result()
		if err != nil {
			return nil, err
		}
		pressures := make([]float64, v.nodes)
		for j := range pressures {
			pressures[j] = v.cos[i].score
		}
		pred, err := v.model.PredictPressures(pressures)
		if err != nil {
			return nil, err
		}
		out[i] = pairError{v.cos[i].name, pred, res.NormalizedA, stats.RelErrPct(pred, res.NormalizedA)}
	}
	return out, nil
}

// validationErrors measures app co-run pairwise with every named
// co-runner, in one batch of their own, and returns one pairError per
// co-runner, in coNames order.
func validationErrors(env *measure.Env, model *core.Model, appName string, coNames []string, nodes int) ([]pairError, error) {
	cos, err := coRunners(env, coNames)
	if err != nil {
		return nil, err
	}
	b := env.NewBatch()
	v, err := planValidation(b, model, appName, cos, nodes)
	if err != nil {
		return nil, err
	}
	if err := b.Run(); err != nil {
		return nil, err
	}
	return v.errors()
}

// appErrors is one application's validation errors (percent) over its
// co-runs.
type appErrors struct {
	app    string
	errs   stats.Summary
	noGems float64 // mean error without the M.Gems co-runner
}

// summarize reduces app's validation co-runs to appErrors.
func summarize(app string, pairs []pairError) (appErrors, error) {
	var errs, noGems []float64
	for _, p := range pairs {
		errs = append(errs, p.errPct)
		if p.name != "M.Gems" {
			noGems = append(noGems, p.errPct)
		}
	}
	sum, err := stats.Summarize(errs)
	return appErrors{app, sum, stats.Mean(noGems)}, err
}

type figure8Result []appErrors

// figure8 regenerates the model validation: every distributed application
// co-run pairwise with all 18 workloads (including itself); per app the
// average error with 25th-75th percentile spread. The models are built
// first, in app order, and each co-runner's bubble score is measured
// once; all the pairs then go through one measurement batch.
func (l *Lab) figure8() (figure8Result, error) {
	coNames := workloads.Names()
	apps := distributedNames()
	if l.Cfg.Quick {
		apps = apps[:4]
		coNames = coNames[:6]
	}
	models := make([]*core.Model, len(apps))
	for i, appName := range apps {
		var err error
		if models[i], err = l.Model(appName); err != nil {
			return nil, err
		}
	}
	cos, err := coRunners(l.Env, coNames)
	if err != nil {
		return nil, err
	}
	b := l.Env.NewBatch()
	vs := make([]*validation, len(apps))
	for i, appName := range apps {
		if vs[i], err = planValidation(b, models[i], appName, cos, 8); err != nil {
			return nil, err
		}
	}
	if err := b.Run(); err != nil {
		return nil, err
	}
	r := make(figure8Result, 0, len(apps))
	for i, appName := range apps {
		pairs, err := vs[i].errors()
		if err != nil {
			return nil, err
		}
		row, err := summarize(appName, pairs)
		if err != nil {
			return nil, err
		}
		r = append(r, row)
	}
	return r, nil
}

func (r figure8Result) output() Output {
	tb := report.NewTable("Figure 8: model validation error per application (co-run with every workload)",
		"workload", "avg error(%)", "p25(%)", "p75(%)", "max(%)")
	withoutGems := report.NewTable("Figure 8 (aux): average error excluding the M.Gems co-runner",
		"workload", "avg error(%)")
	for _, a := range r {
		tb.MustAddRow(a.app, report.F(a.errs.Mean, 2), report.F(a.errs.P25, 2), report.F(a.errs.P75, 2), report.F(a.errs.Max, 2))
		withoutGems.MustAddRow(a.app, report.F(a.noGems, 2))
	}
	return Output{
		ID:     "Figure 8",
		Title:  "Model validation: prediction error across all pairwise co-runs",
		Tables: []*report.Table{tb, withoutGems},
		Notes: []string{
			"Expected shape: most workloads under ~10% average error, many under 5%;",
			"errors drop for several apps once the unpredictable M.Gems co-runner is excluded.",
		},
	}
}

// figure9Result is the M.Gems case study: each distributed app co-run
// with M.Gems (rows labelled by app), and M.Gems itself under each
// co-runner (rows labelled by co-runner).
type figure9Result struct{ withGems, gems []pairError }

// figure9 regenerates the M.Gems case study: predicted vs. actual
// normalized runtimes of every distributed application co-run with M.Gems,
// and of M.Gems itself against every co-runner (the Dom0 blocked-I/O
// effect makes the latter the hard direction).
func (l *Lab) figure9() (*figure9Result, error) {
	apps := distributedNames()
	if l.Cfg.Quick {
		apps = apps[:5]
	}
	r := &figure9Result{}
	for _, appName := range apps {
		model, err := l.Model(appName)
		if err != nil {
			return nil, err
		}
		pairs, err := validationErrors(l.Env, model, appName, []string{"M.Gems"}, 8)
		if err != nil {
			return nil, err
		}
		pairs[0].name = appName
		r.withGems = append(r.withGems, pairs[0])
	}
	gemsModel, err := l.Model("M.Gems")
	if err != nil {
		return nil, err
	}
	r.gems, err = validationErrors(l.Env, gemsModel, "M.Gems", []string{"M.milc", "C.libq", "H.KM", "S.WC"}, 8)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// pairTable renders validation co-runs, one row per pair.
func pairTable(title, label string, pairs []pairError) *report.Table {
	tb := report.NewTable(title, label, "predicted", "actual", "error(%)")
	for _, p := range pairs {
		tb.MustAddRow(p.name, report.Norm(p.pred), report.Norm(p.actual), report.F(p.errPct, 2))
	}
	return tb
}

func (r figure9Result) output() Output {
	ordered := append([]pairError(nil), r.gems...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].errPct < ordered[j].errPct })
	var names []string
	for _, p := range ordered {
		names = append(names, p.name)
	}
	return Output{
		ID:    "Figure 9",
		Title: "The unpredictable workload: validation with M.Gems",
		Tables: []*report.Table{
			pairTable("Figure 9: predicted vs. actual normalized time, co-running with M.Gems", "workload", r.withGems),
			pairTable("Figure 9 (aux): M.Gems itself under each co-runner", "co-runner", r.gems),
		},
		Notes: []string{
			"M.Gems uses latency-sensitive blocked I/O; co-runners with fluctuating CPU load",
			"(Hadoop/Spark) starve the Xen driver domain, which the bubble-profiled model cannot",
			"see — so M.Gems' own predictions degrade most under those co-runners.",
			fmt.Sprintf("Observed error ordering for M.Gems (low to high): %v", names),
		},
	}
}
