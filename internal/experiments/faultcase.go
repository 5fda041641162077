// The EC2-with-failures scenario family: the paper's evaluation assumes
// a healthy cluster and complete profiles; this runner re-runs two of its
// artifacts under an injected fault plan (node crashes, a degraded host,
// 20% profile-cell loss) and shows the management layer degrading
// gracefully — the placement search avoids crashed hosts, lossy matrices
// fall back per-query to the naive proportional model over their
// surviving cells, and every surviving application still receives a
// prediction.

package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ec2"
	"repro/internal/fault"
	"repro/internal/measure"
	"repro/internal/placement"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// faultPlan is the scenario's fixed fault load: two crashed hosts, one
// host running 1.5x slow, and a fifth of every profile matrix lost.
func faultPlan(seed int64) fault.Plan {
	return fault.Plan{
		Seed: seed,
		Faults: []fault.Fault{
			{Kind: fault.NodeCrash, Host: 2},
			{Kind: fault.NodeCrash, Host: 5},
			{Kind: fault.NodeDegrade, Host: 1, Factor: 1.5},
			{Kind: fault.ProfileCellLoss, Fraction: 0.2},
		},
	}
}

// faultErrBoundPct bounds each application's EC2 validation error under
// 20% profile-cell loss and a degraded host.
const faultErrBoundPct = 60

// faulted sets up a fresh environment for the scenario: the lab's
// repetitions and instrumentation, and inj's degraded hosts. The lab's own
// envs stay pristine for every other runner.
func (l *Lab) faulted(env *measure.Env, inj *fault.Injector) {
	env.Reps = l.Cfg.reps()
	env.Telemetry = l.Cfg.Telemetry
	env.Tracer = l.Cfg.Tracer
	env.HostDegrade = inj.DegradeFactor
}

// resilientFor profiles w on env, applies the injector's cell loss to the
// resulting matrix, and wraps it with the naive proportional fallback.
func (l *Lab) resilientFor(inj *fault.Injector, env *measure.Env, name string, nodes int, bcfg core.BuildConfig) (*core.Resilient, float64, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, 0, err
	}
	l.Cfg.log().Info("building interference model", "workload", name, "env", "faulted")
	m, err := core.BuildModel(env, w, bcfg)
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: faulted model for %s: %w", name, err)
	}
	naive, err := core.BuildNaiveModel(env, w, nodes)
	if err != nil {
		return nil, 0, err
	}
	lm := *m
	lm.Matrix = inj.ApplyCellLoss(m.Matrix, name)
	return core.NewResilient(name, core.Partial{M: &lm}, naive, l.Cfg.Telemetry), m.BubbleScore, nil
}

// faultPrediction is one surviving app's prediction under the fault plan,
// tagged with the predictor that served it, against the simulated outcome.
type faultPrediction struct {
	app            string
	units          int // units placed; 0 in the EC2 validation
	pred           float64
	src            core.Source
	actual, errPct float64
}

// faultsResult is the fault scenario: the QoS placement on the surviving
// hosts and the EC2 validation pairs through lossy matrices.
type faultsResult struct {
	downs     []int
	place     []faultPrediction
	ec2       []faultPrediction
	fallbacks uint64 // predictions of the placement apps, search included, served by the naive fallback
}

// faults regenerates the QoS placement case study and a slice of the EC2
// validation (Table 6's error story) under the fault plan.
func (l *Lab) faults() (*faultsResult, error) {
	plan := faultPlan(l.Cfg.Seed)
	inj, err := fault.New(plan, l.Cfg.Telemetry)
	if err != nil {
		return nil, err
	}
	inj.Activate(0)

	env, err := measure.NewEnv(cluster.Default(), l.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	l.faulted(env, inj)

	// Placement under failures: the Figure 10 "a" mix on the 6 surviving
	// hosts. Units per app contract from 4 to 12/4 = 3.
	mix := []string{"M.lmps", "C.libq", "H.KM", "N.cg"}
	r := &faultsResult{downs: inj.DownHosts()}
	units := (cluster.Default().NumHosts - len(r.downs)) * 2 / len(mix)
	bcfg := l.buildCfg()
	bcfg.Nodes = 8

	req := placement.Request{NumHosts: 8, SlotsPerHost: 2, DownHosts: r.downs,
		Predictors: map[string]core.Predictor{}, Scores: map[string]float64{}}
	reg := map[string]workloads.Workload{}
	resilients := map[string]*core.Resilient{}
	for _, name := range mix {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		rs, score, err := l.resilientFor(inj, env, name, 8, bcfg)
		if err != nil {
			return nil, err
		}
		reg[name], resilients[name] = w, rs
		req.Predictors[name], req.Scores[name] = rs, score
		req.Demands = append(req.Demands, cluster.Demand{App: name, Units: units})
	}
	cfg := l.placementConfig(l.Cfg.Seed + 53)
	cfg.QoS = &placement.QoS{App: mix[0], MaxNormalized: qosBound}
	res, err := placement.Search(req, cfg)
	if err != nil {
		return nil, err
	}
	actual, err := env.RunPlacement(res.Placement, reg)
	if err != nil {
		return nil, err
	}
	for _, name := range mix {
		ps, err := core.PressuresFor(res.Placement, name, req.Scores)
		if err != nil {
			return nil, err
		}
		pred, src, err := resilients[name].PredictTagged(ps)
		if err != nil {
			return nil, fmt.Errorf("experiments: no prediction for surviving app %s: %w", name, err)
		}
		_, fb := resilients[name].Sources()
		r.fallbacks += fb
		a := actual[name].Normalized
		r.place = append(r.place, faultPrediction{name, units, pred, src, a, stats.RelErrPct(pred, a)})
	}

	// EC2 with failures: the Table 6 validation pairs re-predicted
	// through lossy matrices on a degraded EC2 environment; the naive
	// fallback, anchored to each matrix's surviving cells (and so to the
	// solo baseline they share), keeps each application's error within
	// faultErrBoundPct.
	ec2Plan := fault.Plan{
		Seed: l.Cfg.Seed + 7,
		Faults: []fault.Fault{
			{Kind: fault.NodeDegrade, Host: 3, Factor: 1.3},
			{Kind: fault.ProfileCellLoss, Fraction: 0.2},
		},
	}
	ec2Inj, err := fault.New(ec2Plan, l.Cfg.Telemetry)
	if err != nil {
		return nil, err
	}
	ec2Inj.Activate(0)
	ec2Env, err := ec2.NewEnv(l.Cfg.Seed + 6)
	if err != nil {
		return nil, err
	}
	l.faulted(ec2Env, ec2Inj)

	apps := ec2.ValidationWorkloads()
	if l.Cfg.Quick {
		apps = apps[:2]
	}
	ec2Bcfg := l.buildCfg()
	ec2Bcfg.Nodes = ec2.Nodes
	ec2Bcfg.Samples = l.Cfg.ec2Samples()
	for _, name := range apps {
		rs, _, err := l.resilientFor(ec2Inj, ec2Env, name, ec2.Nodes, ec2Bcfg)
		if err != nil {
			return nil, err
		}
		a, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		co, err := workloads.ByName("M.Gems")
		if err != nil {
			return nil, err
		}
		coScore, err := core.MeasureBubbleScore(ec2Env, co)
		if err != nil {
			return nil, err
		}
		b := ec2Env.NewBatch()
		ph := b.Pair(a, co, ec2.Nodes)
		if err := b.Run(); err != nil {
			return nil, err
		}
		pair, err := ph.Result()
		if err != nil {
			return nil, err
		}
		pressures := make([]float64, ec2.Nodes)
		for i := range pressures {
			pressures[i] = coScore
		}
		pred, src, err := rs.PredictTagged(pressures)
		if err != nil {
			return nil, err
		}
		r.ec2 = append(r.ec2, faultPrediction{name, 0, pred, src, pair, stats.RelErrPct(pred, pair)})
	}
	return r, nil
}

func (r faultsResult) output() Output {
	placeTab := report.NewTable(
		fmt.Sprintf("Faulted QoS placement: hosts %v crashed, host 1 degraded 1.5x, 20%% profile cells lost", r.downs),
		"app", "units", "predicted", "source", "actual", "err(%)")
	for _, p := range r.place {
		placeTab.MustAddRow(p.app, fmt.Sprint(p.units), report.F(p.pred, 3), p.src.String(),
			report.F(p.actual, 3), report.F(p.errPct, 1))
	}
	ec2Tab := report.NewTable("EC2 with failures: pairwise validation through lossy matrices (co-runner M.Gems)",
		"app", "predicted", "source", "actual", "err(%)")
	var ec2Errs []float64
	for _, p := range r.ec2 {
		ec2Tab.MustAddRow(p.app, report.F(p.pred, 3), p.src.String(), report.F(p.actual, 3), report.F(p.errPct, 1))
		ec2Errs = append(ec2Errs, p.errPct)
	}
	return Output{
		ID:     "Faults",
		Title:  "Graceful degradation under injected faults (crashes, degrade, profile-cell loss)",
		Tables: []*report.Table{placeTab, ec2Tab},
		Notes: []string{
			fmt.Sprintf("Every one of the %d surviving applications received a prediction; %d served by the naive fallback.",
				len(r.place), r.fallbacks),
			fmt.Sprintf("Mean EC2 validation error under faults: %.1f%% (bound: %d%% per application).", stats.Mean(ec2Errs), faultErrBoundPct),
			fmt.Sprintf("Crashed hosts %v held no units in the searched placement.", r.downs),
		},
	}
}
