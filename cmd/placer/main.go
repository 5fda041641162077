// Command placer runs the interference-aware placement search for a mix
// of four applications on the 8-host cluster, optionally with a QoS
// constraint, and verifies the chosen placement on the simulator.
//
// Examples:
//
//	placer -apps M.milc,C.libq,H.KM,M.lmps
//	placer -apps M.lmps,C.libq,H.KM,N.cg -qos M.lmps -bound 1.25
//	placer -apps M.milc,C.libq,H.KM,M.lmps -goal worst
//	placer -apps M.milc,C.libq,H.KM,M.lmps -metrics - -trace -
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// unitsPerApp is the paper's mix shape: four applications of four units
// fill the 8-host, 2-slot cluster exactly.
const unitsPerApp = 4

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "placer:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("placer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		appsCSV  = fs.String("apps", "M.milc,C.libq,H.KM,M.lmps", "comma-separated mix of 4 workloads")
		qosApp   = fs.String("qos", "", "application to protect with a QoS constraint")
		bound    = fs.Float64("bound", 1.25, "QoS bound on normalized execution time")
		goalName = fs.String("goal", "best", "search goal: best or worst")
		iters    = fs.Int("iters", 4000, "annealing iterations")
		restarts = fs.Int("restarts", 0, "independent annealing restarts, run in parallel (0 = search default)")
		seed     = fs.Int64("seed", 1, "experiment seed")
		of       obs.Flags
	)
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Validate every input before anything is profiled.
	var goal placement.Goal
	switch *goalName {
	case "best":
		goal = placement.Best
	case "worst":
		goal = placement.Worst
	default:
		return fmt.Errorf("unknown goal %q", *goalName)
	}
	wreg := map[string]workloads.Workload{}
	var aliases []string
	counts := map[string]int{}
	for _, raw := range strings.Split(*appsCSV, ",") {
		base := strings.TrimSpace(raw)
		w, err := workloads.ByName(base)
		if err != nil {
			return err
		}
		counts[base]++
		alias := base
		if counts[base] > 1 {
			alias = fmt.Sprintf("%s(%d)", base, counts[base])
			w.Name = alias
			w.App.Name = alias
		}
		wreg[alias] = w
		aliases = append(aliases, alias)
	}

	o, err := of.Start("placer", *seed, args, stderr)
	if err != nil {
		return err
	}
	defer o.Close(&err)
	reg, tracer, logger := o.Registry, o.Tracer, o.Logger
	out := report.NewReporter(stdout)

	env, err := measure.NewEnv(cluster.Default(), *seed)
	if err != nil {
		return err
	}
	env.Telemetry = reg
	env.Tracer = tracer

	preds := map[string]core.Predictor{}
	scores := map[string]float64{}
	var demands []cluster.Demand
	cfg := core.DefaultBuildConfig()
	cfg.Seed = *seed
	cfg.Telemetry = reg
	cfg.Tracer = tracer
	for _, alias := range aliases {
		logger.Info("profiling workload", "workload", alias)
		m, err := core.BuildModel(env, wreg[alias], cfg)
		if err != nil {
			return err
		}
		preds[alias] = m
		scores[alias] = m.BubbleScore
		demands = append(demands, cluster.Demand{App: alias, Units: unitsPerApp})
	}

	req := placement.Request{
		NumHosts: 8, SlotsPerHost: 2,
		Demands: demands, Predictors: preds, Scores: scores,
	}
	pcfg := placement.DefaultConfig(*seed)
	pcfg.Goal = goal
	pcfg.Iterations = *iters
	if *restarts > 0 {
		pcfg.Restarts = *restarts
	}
	pcfg.Telemetry = reg
	pcfg.Tracer = tracer
	if *qosApp != "" {
		pcfg.QoS = &placement.QoS{App: *qosApp, MaxNormalized: *bound}
	}
	res, err := placement.Search(req, pcfg)
	if err != nil {
		return err
	}
	cluster.RecordOccupancy(reg, res.Placement)
	logger.Info("placement chosen", "objective", res.Objective, "evaluations", res.Evaluations)

	out.KV("placement", "%s", res.Placement)
	out.KV("objective", "%.4f (weighted normalized runtime, model)", res.Objective)
	if pcfg.QoS != nil {
		out.KV("QoS (model)", "%s <= %.2f: %v", *qosApp, *bound, res.QoSSatisfied)
	}
	out.KV("evaluations", "%d", res.Evaluations)
	out.Blank()

	outs, err := env.RunPlacement(res.Placement, wreg)
	if err != nil {
		return err
	}
	tb := report.NewTable("Simulated outcome of the chosen placement",
		"app", "predicted", "simulated", "units")
	sort.Strings(aliases)
	for _, a := range aliases {
		reg.Gauge(telemetry.Label("app_predicted_normalized", "app", a)).Set(res.Predicted[a])
		tb.MustAddRow(a, report.Norm(res.Predicted[a]), report.Norm(outs[a].Normalized),
			fmt.Sprint(res.Placement.UnitsOf(a)))
	}
	out.Table(tb)
	return out.Flush()
}
