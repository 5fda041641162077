// The EC2-with-failures scenario family: the paper's evaluation assumes
// a healthy cluster and complete profiles; this runner re-runs two of its
// artifacts under an injected fault plan (node crashes, a degraded host,
// 20% profile-cell loss) and shows the management layer degrading
// gracefully — the placement search avoids crashed hosts, lossy matrices
// fall back per-query to the naive proportional model, and every
// surviving application still receives a prediction.

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

// faultEnv builds a fresh faulted private-cluster environment; the lab's
// shared Env stays pristine for every other runner.
func (l *Lab) faultEnv(inj *fault.Injector) (*measure.Env, error) {
	env, err := measure.NewEnv(cluster.Default(), l.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	env.Reps = l.Cfg.reps()
	env.Telemetry = l.Cfg.Telemetry
	env.Tracer = l.Cfg.Tracer
	env.HostDegrade = inj.DegradeFactor
	return env, nil
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

// FaultInjection regenerates the QoS placement case study and a slice of
// the EC2 validation (Table 6's error story) under the fault plan.
func (l *Lab) FaultInjection() (Output, error) {
	plan := faultPlan(l.Cfg.Seed)
	inj, err := fault.New(plan, l.Cfg.Telemetry)
	if err != nil {
		return Output{}, err
	}
	inj.Activate(0)

	env, err := l.faultEnv(inj)
	if err != nil {
		return Output{}, err
	}

	// Placement under failures: the Figure 10 "a" mix on the 6 surviving
	// hosts. Units per app contract from 4 to 12/4 = 3.
	mix := []string{"M.lmps", "C.libq", "H.KM", "N.cg"}
	downs := inj.DownHosts()
	units := (cluster.Default().NumHosts - len(downs)) * 2 / len(mix)
	bcfg := l.buildCfg()
	bcfg.Nodes = 8

	reg := map[string]workloads.Workload{}
	preds := map[string]core.Predictor{}
	resilients := map[string]*core.Resilient{}
	scores := map[string]float64{}
	demands := make([]cluster.Demand, 0, len(mix))
	for _, name := range mix {
		w, err := workloads.ByName(name)
		if err != nil {
			return Output{}, err
		}
		r, score, err := l.resilientFor(inj, env, name, 8, bcfg)
		if err != nil {
			return Output{}, err
		}
		reg[name] = w
		preds[name] = r
		resilients[name] = r
		scores[name] = score
		demands = append(demands, cluster.Demand{App: name, Units: units})
	}

	req := placement.Request{
		NumHosts: 8, SlotsPerHost: 2,
		Demands: demands, Predictors: preds, Scores: scores,
		DownHosts: downs,
	}
	cfg := l.PlacementConfig(l.Cfg.Seed + 53)
	cfg.Iterations = l.Cfg.placementIters()
	cfg.QoS = &placement.QoS{App: mix[0], MaxNormalized: qosBound}
	res, err := placement.Search(req, cfg)
	if err != nil {
		return Output{}, err
	}
	actual, err := env.RunPlacement(res.Placement, reg)
	if err != nil {
		return Output{}, err
	}

	placeTab := report.NewTable(
		fmt.Sprintf("Faulted QoS placement: hosts %v crashed, host 1 degraded 1.5x, 20%% profile cells lost", downs),
		"app", "units", "predicted", "source", "actual", "err(%)")
	var fallbackTotal uint64
	for _, name := range mix {
		ps, err := core.PressuresFor(res.Placement, name, scores)
		if err != nil {
			return Output{}, err
		}
		pred, src, err := resilients[name].PredictTagged(ps)
		if err != nil {
			return Output{}, fmt.Errorf("experiments: no prediction for surviving app %s: %w", name, err)
		}
		_, fb := resilients[name].Sources()
		fallbackTotal += fb
		placeTab.MustAddRow(name, fmt.Sprint(units), report.F(pred, 3), src.String(),
			report.F(actual[name].Normalized, 3), report.F(stats.RelErrPct(pred, actual[name].Normalized), 1))
	}

	// EC2 with failures: the Table 6 validation pairs re-predicted
	// through lossy matrices on a degraded EC2 environment; the naive
	// fallback keeps each application's error within faultErrBoundPct.
	ec2Plan := fault.Plan{
		Seed: l.Cfg.Seed + 7,
		Faults: []fault.Fault{
			{Kind: fault.NodeDegrade, Host: 3, Factor: 1.3},
			{Kind: fault.ProfileCellLoss, Fraction: 0.2},
		},
	}
	ec2Inj, err := fault.New(ec2Plan, l.Cfg.Telemetry)
	if err != nil {
		return Output{}, err
	}
	ec2Inj.Activate(0)
	ec2Env, err := ec2.NewEnv(l.Cfg.Seed + 6)
	if err != nil {
		return Output{}, err
	}
	ec2Env.Reps = l.Cfg.reps()
	ec2Env.Telemetry = l.Cfg.Telemetry
	ec2Env.Tracer = l.Cfg.Tracer
	ec2Env.HostDegrade = ec2Inj.DegradeFactor

	apps := ec2.ValidationWorkloads()
	if l.Cfg.Quick {
		apps = apps[:2]
	}
	ec2Bcfg := l.buildCfg()
	ec2Bcfg.Nodes = ec2.Nodes
	ec2Bcfg.Samples = l.Cfg.ec2Samples()
	ec2Tab := report.NewTable("EC2 with failures: pairwise validation through lossy matrices (co-runner M.Gems)",
		"app", "predicted", "source", "actual", "err(%)")
	var ec2Errs []float64
	for _, name := range apps {
		r, _, err := l.resilientFor(ec2Inj, ec2Env, name, ec2.Nodes, ec2Bcfg)
		if err != nil {
			return Output{}, err
		}
		a, err := workloads.ByName(name)
		if err != nil {
			return Output{}, err
		}
		co, err := workloads.ByName("M.Gems")
		if err != nil {
			return Output{}, err
		}
		coScore, err := core.MeasureBubbleScore(ec2Env, co)
		if err != nil {
			return Output{}, err
		}
		b := ec2Env.NewBatch()
		ph := b.Pair(a, co, ec2.Nodes)
		if err := b.Run(); err != nil {
			return Output{}, err
		}
		pair, err := ph.Result()
		if err != nil {
			return Output{}, err
		}
		pressures := make([]float64, ec2.Nodes)
		for i := range pressures {
			pressures[i] = coScore
		}
		pred, src, err := r.PredictTagged(pressures)
		if err != nil {
			return Output{}, err
		}
		e := stats.RelErrPct(pred, pair.NormalizedA)
		ec2Errs = append(ec2Errs, e)
		ec2Tab.MustAddRow(name, report.F(pred, 3), src.String(),
			report.F(pair.NormalizedA, 3), report.F(e, 1))
	}
	meanErr := stats.Mean(ec2Errs)

	return Output{
		ID:     "Faults",
		Title:  "Graceful degradation under injected faults (crashes, degrade, profile-cell loss)",
		Tables: []*report.Table{placeTab, ec2Tab},
		Notes: []string{
			fmt.Sprintf("Every one of the %d surviving applications received a prediction; %d served by the naive fallback.",
				len(mix), fallbackTotal),
			fmt.Sprintf("Mean EC2 validation error under faults: %.1f%% (bound: %d%% per application).", meanErr, faultErrBoundPct),
			fmt.Sprintf("Crashed hosts %v held no units in the searched placement.", downs),
		},
	}, nil
}
