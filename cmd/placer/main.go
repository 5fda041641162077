// Command placer runs the interference-aware placement search for a mix
// of four applications on the 8-host cluster, optionally with a QoS
// constraint, and verifies the chosen placement on the simulator.
//
// Examples:
//
//	placer -apps M.milc,C.libq,H.KM,M.lmps
//	placer -apps M.lmps,C.libq,H.KM,N.cg -qos M.lmps -bound 1.25
//	placer -apps M.milc,C.libq,H.KM,M.lmps -goal worst
//	placer -apps M.milc,C.libq,H.KM,M.lmps -metrics - -trace - -listen :9090
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/workloads"

	interference "repro"
)

// logger is installed by main before any fatal path can run.
var logger = obs.Nop()

func main() {
	var (
		appsCSV     = flag.String("apps", "M.milc,C.libq,H.KM,M.lmps", "comma-separated mix of 4 workloads")
		qosApp      = flag.String("qos", "", "application to protect with a QoS constraint")
		bound       = flag.Float64("bound", 1.25, "QoS bound on normalized execution time")
		goal        = flag.String("goal", "best", "search goal: best or worst")
		iters       = flag.Int("iters", 4000, "annealing iterations")
		restarts    = flag.Int("restarts", 0, "independent annealing restarts, run in parallel (0 = search default)")
		cells       = flag.Int("cells", 0, "shard hosts into this many cells for the hierarchical search (0 = size adaptively from the host count, 1 = flat)")
		exchange    = flag.Int("exchange", 0, "cross-cell exchange proposals after the cell phase (0 = iters; needs cells > 1)")
		units       = flag.Int("units", 4, "units per application")
		naive       = flag.Bool("naive", false, "drive the search with the naive proportional model")
		seed        = flag.Int64("seed", 1, "experiment seed")
		metricsPath = flag.String("metrics", "", "write a JSON RunReport (metrics snapshot) to this file ('-' for stdout)")
		tracePath   = flag.String("trace", "", "write recorded spans as JSON to this file ('-' for stdout)")
		listen      = flag.String("listen", "", "serve the observability plane (/metrics, /healthz, /readyz, /api/*, /debug/pprof/) on this address for the duration of the run, e.g. :9090")
		logFormat   = flag.String("log-format", obs.LogText, "log format: text or json")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
	)
	flag.Parse()

	l, err := obs.FlagLogger(*logFormat, *logLevel, "placer")
	if err != nil {
		fmt.Fprintln(os.Stderr, "placer:", err)
		os.Exit(1)
	}
	logger = l

	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(telemetry.DefaultSpanCapacity)
	telemetry.RegisterBuildInfo(reg)
	runReport := telemetry.NewRunReport("placer", *seed, os.Args[1:])
	out := report.NewReporter(os.Stdout)

	var srv *obs.Server
	var plane *obs.Running
	bus := obs.NewBus(obs.DefaultBusBuffer)
	if *listen != "" {
		srv = obs.New(obs.Options{Registry: reg, Tracer: tracer, Report: runReport, Bus: bus, Logger: logger})
		plane, err = srv.Start(*listen)
		if err != nil {
			fatal(err)
		}
		defer func() {
			srv.SetReady(false)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := plane.Shutdown(ctx); err != nil {
				logger.Warn("plane shutdown", "err", err)
			}
		}()
	}

	names := strings.Split(*appsCSV, ",")
	env, err := interference.NewPrivateClusterEnv(*seed)
	if err != nil {
		fatal(err)
	}
	env.Telemetry = reg
	env.Tracer = tracer

	preds := map[string]interference.Predictor{}
	scores := map[string]float64{}
	wreg := map[string]workloads.Workload{}
	var demands []interference.Demand
	counts := map[string]int{}
	cfg := interference.DefaultBuildConfig()
	cfg.Seed = *seed
	cfg.Telemetry = reg
	cfg.Tracer = tracer
	for _, raw := range names {
		base := strings.TrimSpace(raw)
		w, err := interference.WorkloadByName(base)
		if err != nil {
			fatal(err)
		}
		counts[base]++
		alias := base
		if counts[base] > 1 {
			alias = fmt.Sprintf("%s(%d)", base, counts[base])
			w.Name = alias
			w.App.Name = alias
		}
		logger.Info("profiling workload", "workload", base, "alias", alias, "naive", *naive)
		var pred interference.Predictor
		var score float64
		if *naive {
			nm, err := interference.BuildNaiveModel(env, w, *units)
			if err != nil {
				fatal(err)
			}
			pred, score = nm, nm.BubbleScore
		} else {
			m, err := interference.BuildModel(env, w, cfg)
			if err != nil {
				fatal(err)
			}
			pred, score = m, m.BubbleScore
		}
		preds[alias] = pred
		scores[alias] = score
		wreg[alias] = w
		demands = append(demands, interference.Demand{App: alias, Units: *units})
	}
	if srv != nil {
		srv.SetReady(true)
	}

	req := interference.PlacementRequest{
		NumHosts: 8, SlotsPerHost: 2,
		Demands: demands, Predictors: preds, Scores: scores,
	}
	pcfg := interference.DefaultPlacementConfig(*seed)
	pcfg.Iterations = *iters
	if *restarts > 0 {
		pcfg.Restarts = *restarts
	}
	pcfg.Cells = *cells
	if *cells == 0 {
		pcfg.Cells = placement.AdaptiveCells(req.NumHosts, runtime.GOMAXPROCS(0))
	}
	pcfg.ExchangeIters = *exchange
	pcfg.Telemetry = reg
	pcfg.Tracer = tracer
	pcfg.OnProgress = func(s placement.ProgressSample) {
		if s.Step%25 != 0 {
			return
		}
		if data, err := json.Marshal(s); err == nil {
			bus.Publish("placement_sample", data)
		}
	}
	switch *goal {
	case "best":
		pcfg.Goal = placement.Best
	case "worst":
		pcfg.Goal = placement.Worst
	default:
		fatal(fmt.Errorf("unknown goal %q", *goal))
	}
	if *qosApp != "" {
		pcfg.QoS = &interference.QoS{App: *qosApp, MaxNormalized: *bound}
	}
	res, err := interference.SearchPlacement(req, pcfg)
	if err != nil {
		fatal(err)
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
		fatal(err)
	}
	tb := report.NewTable("Simulated outcome of the chosen placement",
		"app", "predicted", "simulated", "units")
	var appNames []string
	for a := range outs {
		appNames = append(appNames, a)
	}
	sort.Strings(appNames)
	for _, a := range appNames {
		reg.Gauge(telemetry.Label("app_predicted_normalized", "app", a)).Set(res.Predicted[a])
		tb.MustAddRow(a, report.Norm(res.Predicted[a]), report.Norm(outs[a].Normalized),
			fmt.Sprint(res.Placement.UnitsOf(a)))
	}
	out.Table(tb)

	if err := telemetry.Emit(runReport, reg, tracer, *metricsPath, *tracePath); err != nil {
		fatal(err)
	}
	if err := out.Flush(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}
