package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// unitsPerApp is the paper's mix shape: four applications of four units
// fill the 8-host, 2-slot cluster exactly.
const unitsPerApp = 4

// place runs the interference-aware placement search for a mix of four
// applications on the 8-host cluster, optionally with a QoS constraint,
// and verifies the chosen placement on the simulator.
func place(args []string, stdout, stderr io.Writer) (err error) {
	c := newCommand("paperrepro place", 1, stderr)
	var (
		appsCSV  = c.fs.String("apps", "M.milc,C.libq,H.KM,M.lmps", "comma-separated mix of 4 workloads")
		qosApp   = c.fs.String("qos", "", "application to protect with a QoS constraint")
		bound    = c.fs.Float64("bound", 1.25, "QoS bound on normalized execution time")
		goalName = c.fs.String("goal", "best", "search goal: best or worst")
		iters    = c.fs.Int("iters", 4000, "annealing iterations")
	)
	if err := c.parse(args); err != nil {
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

	r, err := c.start(args, stderr)
	if err != nil {
		return err
	}
	defer r.Close(&err)
	reg := r.Registry
	out := report.NewReporter(stdout)

	env, err := r.env(false)
	if err != nil {
		return err
	}

	preds := map[string]core.Predictor{}
	scores := map[string]float64{}
	var demands []cluster.Demand
	cfg := r.buildConfig()
	for _, alias := range aliases {
		r.Logger.Info("profiling workload", "workload", alias)
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
	pcfg := placement.DefaultConfig(r.seed)
	pcfg.Goal = goal
	pcfg.Iterations = *iters
	pcfg.Telemetry = reg
	pcfg.Tracer = r.Tracer
	if *qosApp != "" {
		pcfg.QoS = &placement.QoS{App: *qosApp, MaxNormalized: *bound}
	}
	res, err := placement.Search(req, pcfg)
	if err != nil {
		return err
	}
	cluster.RecordOccupancy(reg, res.Placement)
	r.Logger.Info("placement chosen", "objective", res.Objective, "evaluations", res.Evaluations)

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
