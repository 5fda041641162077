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

// validate builds every app's model through model (Lab.Model or
// Lab.ec2Model), in order, then co-runs each app pairwise with every one
// of its co-runners cos[i], all in one measurement batch, and returns one
// pairError per co-runner, in order, per app. Each prediction is made by
// the app's model at the co-runner's bubble score on every one of `nodes`
// hosts — exactly the information a deployment would have. Repeated pairs
// across experiments hit the lab's shared cache.
func validate(env *measure.Env, model func(string) (*core.Model, error), apps []string, cos [][]coRunner, nodes int) ([][]pairError, error) {
	models := make([]*core.Model, len(apps))
	for i, name := range apps {
		var err error
		if models[i], err = model(name); err != nil {
			return nil, err
		}
	}
	b := env.NewBatch()
	hs := make([][]*measure.Value, len(apps))
	for i, name := range apps {
		a, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, co := range cos[i] {
			hs[i] = append(hs[i], b.Pair(a, co.w, nodes))
		}
	}
	if err := b.Run(); err != nil {
		return nil, err
	}
	out := make([][]pairError, len(apps))
	pressures := make([]float64, nodes)
	for i := range apps {
		for k, h := range hs[i] {
			res, err := h.Result()
			if err != nil {
				return nil, err
			}
			co := cos[i][k]
			for j := range pressures {
				pressures[j] = co.score
			}
			pred, err := models[i].PredictPressures(pressures)
			if err != nil {
				return nil, err
			}
			out[i] = append(out[i], pairError{co.name, pred, res, stats.RelErrPct(pred, res)})
		}
	}
	return out, nil
}

// appErrors is one application's validation errors (percent) over its
// co-runs.
type appErrors struct {
	app    string
	errs   stats.Summary
	noGems float64 // mean error without the M.Gems co-runner
}

// summarize reduces each app's validation co-runs to appErrors.
func summarize(apps []string, pairs [][]pairError) ([]appErrors, error) {
	out := make([]appErrors, len(apps))
	for i, app := range apps {
		var errs, noGems []float64
		for _, p := range pairs[i] {
			errs = append(errs, p.errPct)
			if p.name != "M.Gems" {
				noGems = append(noGems, p.errPct)
			}
		}
		sum, err := stats.Summarize(errs)
		if err != nil {
			return nil, err
		}
		out[i] = appErrors{app, sum, stats.Mean(noGems)}
	}
	return out, nil
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
	cos, err := coRunners(l.Env, coNames)
	if err != nil {
		return nil, err
	}
	each := make([][]coRunner, len(apps))
	for i := range each {
		each[i] = cos
	}
	pairs, err := validate(l.Env, l.Model, apps, each, 8)
	if err != nil {
		return nil, err
	}
	return summarize(apps, pairs)
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
// effect makes the latter the hard direction). As in Figure 8, the models
// are built first and all the pairs go through one measurement batch.
func (l *Lab) figure9() (*figure9Result, error) {
	apps := distributedNames()
	if l.Cfg.Quick {
		apps = apps[:5]
	}
	// Every app co-runs with M.Gems, then M.Gems with each of four.
	subjects := append(apps[:len(apps):len(apps)], "M.Gems")
	cos, err := coRunners(l.Env, []string{"M.Gems", "M.milc", "C.libq", "H.KM", "S.WC"})
	if err != nil {
		return nil, err
	}
	each := make([][]coRunner, len(subjects))
	for i := range apps {
		each[i] = cos[:1]
	}
	each[len(apps)] = cos[1:]
	pairs, err := validate(l.Env, l.Model, subjects, each, 8)
	if err != nil {
		return nil, err
	}
	r := &figure9Result{gems: pairs[len(apps)]}
	for i, appName := range apps {
		p := pairs[i][0]
		p.name = appName
		r.withGems = append(r.withGems, p)
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
