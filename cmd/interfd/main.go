// Command interfd is the long-running interference-management daemon: it
// profiles a workload mix once at startup, then drives a continuous stream
// of scheduling rounds — each round draws a fresh Poisson job stream, runs
// a placement-search sweep for the current mix, and executes the stream
// through the online cluster manager on the ground-truth simulator — while
// serving the live observability plane (Prometheus /metrics, health and
// readiness probes, /api/report, /api/spans, an SSE event stream, and
// pprof) the whole time.
//
// The same listener also serves placement as a service: POST /api/place
// runs the interference-aware search for an arbitrary app mix (batched
// through an admission queue), POST /api/whatif scores one concrete
// placement, and /api/slo reports the latency-SLO burn rate. With
// -serve-only the round loop is skipped and the daemon is purely an API
// server.
//
// SIGINT/SIGTERM shut it down gracefully: the in-flight round drains, a
// final RunReport is written to -report, and the HTTP plane stops.
//
// Examples:
//
//	interfd -listen :8080
//	interfd -listen :8080 -policy pack-first -rounds 10 -report -
//	interfd -listen :8080 -serve-only -slo-target 0.25
//	curl localhost:8080/readyz; curl localhost:8080/metrics
//	curl -XPOST -d '{"apps":[{"app":"M.lmps","units":4}]}' localhost:8080/api/place
//	curl -N localhost:8080/api/events
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/fault"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/schedule"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// The shape of the streamed jobs; only the batch size is a flag.
const (
	jobUnits         = 2    // units per streamed job
	meanInterarrival = 30.0 // Poisson mean gap between arrivals, simulated seconds
	qosFraction      = 0.25 // fraction of jobs carrying a QoS bound
	qosBound         = 1.25 // that bound, on normalized execution time
)

// daemonConfig collects every tunable of the daemon loop so tests can run
// it in-process.
type daemonConfig struct {
	listen           string
	seed             int64
	policy           schedule.Policy
	mix              []string
	units            int
	hosts, slots     int
	batch            int
	rounds           int // 0 = run until the context is cancelled
	workMin, workMax float64
	samples          int // heterogeneity samples per model build
	workers          int // measurement batch workers and placement API search workers (0 = GOMAXPROCS)
	searchIters      int // placement-search iterations per round
	searchRestarts   int // parallel annealing restarts per round
	searchCells      int // hierarchical-search cells (0 = adaptive, 1 = flat search)
	searchExchange   int // cross-cell exchange proposals (0 = searchIters)
	seriesCap        int // retained points per convergence series
	roundPause       time.Duration
	reportPath       string
	tracePath        string
	faultsPath       string        // JSON fault plan to inject ("" = none)
	profileRetries   int           // extra build attempts after the first
	profileBackoff   time.Duration // initial retry backoff, doubled per attempt

	// Drift observability (internal/drift): residual tracking thresholds
	// and the decision audit log.
	driftAlpha      float64 // EWMA learning rate for residuals
	driftThreshold  float64 // relative residual beyond which a cell drifts
	driftStaleAfter int     // rounds without confirmation before a cell is stale
	driftMinObs     int     // per-app warm-up before drift events fire
	driftAuditPath  string  // JSONL decision audit file ("" = none)
	driftAuditCap   int     // decision records retained in the ring

	// Placement-as-a-service plane (internal/serve) and its latency SLO.
	serveOnly      bool          // skip the round loop; serve the API until signalled
	addrFile       string        // write the bound listen address to this file ("" = none)
	serveQueue     int           // admission-queue depth
	sloTarget      float64       // end-to-end latency SLO target, seconds
	sloBudget      float64       // error budget (violating fraction allowed)
	sloWindow      int           // sliding-window size, requests (test hook)
	sloMinRequests int           // observations before breaches may fire (test hook)
	sloCooldown    time.Duration // min gap between breach events (test hook)

	// notifyAddr, when non-nil, receives the bound listen address once
	// the plane is up (test hook).
	notifyAddr func(string)
}

func defaultDaemonConfig() daemonConfig {
	return daemonConfig{
		listen: ":8080", seed: 1,
		policy: schedule.ModelDriven,
		mix:    []string{"M.lmps", "C.libq", "H.KM", "N.cg"},
		units:  4, hosts: 8, slots: 2,
		batch: 10, rounds: 0,
		workMin: 20, workMax: 90,
		samples: 15, searchIters: 600, searchRestarts: 1, seriesCap: 4096,
		roundPause:     0,
		reportPath:     "interfd-report.json",
		profileRetries: 3, profileBackoff: 50 * time.Millisecond,
		driftAlpha:      drift.DefaultConfig().Alpha,
		driftThreshold:  drift.DefaultConfig().ResidualThreshold,
		driftStaleAfter: drift.DefaultConfig().StaleAfter,
		driftMinObs:     drift.DefaultConfig().MinObservations,
		driftAuditPath:  "interfd-decisions.jsonl",
		driftAuditCap:   drift.DefaultAuditCap,
		serveQueue:      64,
		sloTarget:       obs.DefaultSLOConfig().TargetSeconds,
		sloBudget:       obs.DefaultSLOConfig().Budget,
		sloWindow:       obs.DefaultSLOConfig().Window,
		sloMinRequests:  obs.DefaultSLOConfig().MinRequests,
		sloCooldown:     obs.DefaultSLOConfig().Cooldown,
	}
}

func main() {
	cfg := defaultDaemonConfig()
	var (
		listen    = flag.String("listen", cfg.listen, "observability plane address (/metrics, /healthz, /readyz, /api/*, /debug/pprof/)")
		seed      = flag.Int64("seed", cfg.seed, "experiment seed")
		policyStr = flag.String("policy", cfg.policy.String(), "scheduling policy: model-driven, random-fit, pack-first")
		mixCSV    = flag.String("mix", strings.Join(cfg.mix, ","), "comma-separated workload mix to profile and stream")
		batch     = flag.Int("batch", cfg.batch, "jobs per scheduling round")
		rounds    = flag.Int("rounds", cfg.rounds, "rounds to run (0 = until SIGINT/SIGTERM)")
		samples   = flag.Int("profile-samples", cfg.samples, "heterogeneity samples per startup model build")
		workers   = flag.Int("workers", cfg.workers, "measurement batch workers and placement API search workers (0 = GOMAXPROCS, 1 = serial; results are identical either way)")
		iters     = flag.Int("search-iters", cfg.searchIters, "placement-search iterations per round")
		restarts  = flag.Int("search-restarts", cfg.searchRestarts, "independent annealing restarts per round, run in parallel")
		scells    = flag.Int("search-cells", cfg.searchCells, "shard hosts into this many cells for the hierarchical search (0 = size adaptively from the host count, 1 = flat)")
		sexchange = flag.Int("search-exchange", cfg.searchExchange, "cross-cell exchange proposals after the cell phase (0 = search-iters; needs -search-cells > 1)")
		faults    = flag.String("faults", "", "JSON fault plan to inject (node crashes, degrades, profile-cell loss, transient profiling failures)")
		dAlpha    = flag.Float64("drift-alpha", cfg.driftAlpha, "EWMA learning rate for model-drift residual tracking, in (0,1]")
		dThresh   = flag.Float64("drift-threshold", cfg.driftThreshold, "relative residual beyond which a matrix cell or app counts as drifting")
		dStale    = flag.Int("drift-stale-after", cfg.driftStaleAfter, "rounds without a confirming observation before a cell counts stale")
		dMinObs   = flag.Int("drift-min-obs", cfg.driftMinObs, "per-app observations before drift events may fire")
		dAudit    = flag.String("drift-audit", cfg.driftAuditPath, "write the placement decision audit log (JSON Lines) to this file at drain ('' = none)")
		dAuditCap = flag.Int("drift-audit-cap", cfg.driftAuditCap, "decision records retained in the audit ring buffer")
		serveOnly = flag.Bool("serve-only", cfg.serveOnly, "skip the round loop: profile, arm the placement API, and serve until SIGINT/SIGTERM")
		addrFile  = flag.String("addr-file", cfg.addrFile, "write the bound listen address to this file once the plane is up")
		srvQueue  = flag.Int("serve-queue", cfg.serveQueue, "placement API admission-queue depth (full queue answers 429)")
		sloTarget = flag.Float64("slo-target", cfg.sloTarget, "placement API latency SLO target, seconds")
		sloBudget = flag.Float64("slo-budget", cfg.sloBudget, "placement API error budget: allowed violating request fraction in (0,1)")
		report    = flag.String("report", cfg.reportPath, "write the final JSON RunReport to this file ('-' for stdout)")
		of        obs.Flags
	)
	of.RegisterLogging(flag.CommandLine)
	flag.Parse()

	logger, err := of.Logger("interfd", os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "interfd:", err)
		os.Exit(1)
	}

	cfg.listen, cfg.seed, cfg.mix = *listen, *seed, strings.Split(*mixCSV, ",")
	cfg.batch, cfg.rounds = *batch, *rounds
	cfg.samples, cfg.searchIters = *samples, *iters
	cfg.workers = *workers
	cfg.searchRestarts = *restarts
	cfg.searchCells, cfg.searchExchange = *scells, *sexchange
	cfg.reportPath, cfg.tracePath = *report, of.Trace
	cfg.faultsPath = *faults
	cfg.driftAlpha, cfg.driftThreshold = *dAlpha, *dThresh
	cfg.driftStaleAfter, cfg.driftMinObs = *dStale, *dMinObs
	cfg.driftAuditPath, cfg.driftAuditCap = *dAudit, *dAuditCap
	cfg.serveOnly, cfg.addrFile = *serveOnly, *addrFile
	cfg.serveQueue = *srvQueue
	cfg.sloTarget, cfg.sloBudget = *sloTarget, *sloBudget
	switch *policyStr {
	case schedule.ModelDriven.String():
		cfg.policy = schedule.ModelDriven
	case schedule.RandomFit.String():
		cfg.policy = schedule.RandomFit
	case schedule.PackFirst.String():
		cfg.policy = schedule.PackFirst
	default:
		logger.Error("unknown policy", "policy", *policyStr)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runDaemon(ctx, cfg, logger); err != nil {
		logger.Error("daemon failed", "err", err)
		os.Exit(1)
	}
}

// runDaemon is the whole daemon lifecycle: observability plane up, models
// built, readiness flipped, round loop until ctx cancels or the round
// budget is spent, then graceful drain and the final report.
func runDaemon(ctx context.Context, cfg daemonConfig, logger *slog.Logger) error {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(telemetry.DefaultSpanCapacity)
	telemetry.RegisterBuildInfo(reg)
	bus := obs.NewBus(obs.DefaultBusBuffer)
	runReport := telemetry.NewRunReport("interfd", cfg.seed, os.Args[1:])

	// Drift observability: the tracker and decision audit log exist before
	// the HTTP plane starts so /api/drift, /api/decisions and the report's
	// drift section are race-free from the first request.
	dcfg := drift.DefaultConfig()
	dcfg.Alpha = cfg.driftAlpha
	dcfg.ResidualThreshold = cfg.driftThreshold
	dcfg.StaleAfter = cfg.driftStaleAfter
	dcfg.MinObservations = cfg.driftMinObs
	tracker, err := drift.New(dcfg, reg)
	if err != nil {
		return err
	}
	audit := drift.NewAuditLog(cfg.driftAuditCap)
	runReport.SetDriftSource(tracker.SnapshotAny)

	// finish flushes the decision audit (tmp+rename, so SIGTERM never
	// leaves a truncated log) and writes the final report; every daemon
	// exit path funnels through it.
	finish := func() error {
		if err := audit.SaveFile(cfg.driftAuditPath); err != nil {
			logger.Warn("decision audit flush failed", "path", cfg.driftAuditPath, "err", err)
		} else if cfg.driftAuditPath != "" {
			logger.Info("decision audit written", "path", cfg.driftAuditPath,
				"records", audit.Len(), "evicted", audit.Dropped())
		}
		return telemetry.Emit(runReport, reg, tracer, cfg.reportPath, cfg.tracePath)
	}

	// Placement-as-a-service: the latency SLO tracker, the process-health
	// collector, and the service itself exist before the HTTP plane starts
	// so /api/place, /api/whatif, /api/slo and the process_* gauges are
	// mounted from the first request. The service answers 503 until the
	// startup models arm its backend below.
	scfg := obs.SLOConfig{
		TargetSeconds: cfg.sloTarget, Budget: cfg.sloBudget,
		Window: cfg.sloWindow, MinRequests: cfg.sloMinRequests,
		BurnThreshold: 1, Cooldown: cfg.sloCooldown,
	}
	slo, err := obs.NewSLOTracker(scfg, reg, bus)
	if err != nil {
		return err
	}
	svc, err := serve.New(serve.Config{
		NumHosts: cfg.hosts, SlotsPerHost: cfg.slots,
		Seed:       cfg.seed,
		Iterations: cfg.searchIters, Restarts: cfg.searchRestarts,
		QueueDepth: cfg.serveQueue, Workers: cfg.workers,
		Telemetry: reg, Tracer: tracer, SLO: slo, Logger: logger,
	})
	if err != nil {
		return err
	}

	srv := obs.New(obs.Options{
		Registry: reg, Tracer: tracer, Bus: bus, Report: runReport, Logger: logger,
		DriftSnapshot:  tracker.SnapshotAny,
		DecisionsJSONL: audit.WriteJSONL,
		SLOSnapshot:    func() any { return slo.Snapshot() },
		Runtime:        obs.NewRuntimeCollector(reg),
		Routes:         svc.Routes(),
	})
	running, err := srv.Start(cfg.listen)
	if err != nil {
		svc.Close()
		return err
	}
	defer func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if err := running.Shutdown(shutCtx); err != nil {
			logger.Warn("plane shutdown", "err", err)
		}
	}()
	defer svc.Close() // reject queued placements before the plane drains
	if cfg.addrFile != "" {
		if err := os.WriteFile(cfg.addrFile, []byte(running.Addr+"\n"), 0o644); err != nil {
			return fmt.Errorf("interfd: write addr file: %w", err)
		}
	}
	if cfg.notifyAddr != nil {
		cfg.notifyAddr(running.Addr)
	}

	// Fault plan: load, wire the injector to the bus, and activate the
	// round-0 faults before profiling so crashes, degrades and transient
	// profiling failures shape the startup phase too.
	var inj *fault.Injector
	if cfg.faultsPath != "" {
		plan, err := fault.LoadPlan(cfg.faultsPath)
		if err != nil {
			return err
		}
		inj, err = fault.New(plan, reg)
		if err != nil {
			return err
		}
		inj.OnEvent = func(f fault.Fault) {
			logger.Warn("fault injected", "kind", f.Kind.String(), "host", f.Host,
				"factor", f.Factor, "fraction", f.Fraction, "rate", f.Rate, "round", f.Round)
			bus.Publish("fault_injected", f)
		}
		inj.Activate(0)
	}

	// Startup profiling: one interference model per mix workload. The
	// daemon is alive (/healthz) but not ready (/readyz 503) until the
	// surviving models are built. Under an active fault plan, each build
	// retries with exponential backoff; a workload whose builds keep
	// failing is dropped (counted, logged) rather than crashing the
	// daemon, and a lossy matrix is wrapped in a resilient predictor that
	// falls back to the naive proportional model on lost cells.
	env, err := measure.NewEnv(cluster.Default(), cfg.seed)
	if err != nil {
		return err
	}
	env.Telemetry = reg
	env.Tracer = tracer
	env.Workers = cfg.workers
	// The content cache memoizes repeated profiling settings across the
	// mix; it disables itself automatically while host degradation from an
	// active fault plan could change measured values.
	env.Cache = measure.NewCache()
	if inj != nil {
		env.HostDegrade = inj.DegradeFactor
		env.FailureHook = inj.FailureHook // profiling phase only; cleared below
	}

	retriesC := reg.Counter("interfd_profile_retries_total")
	droppedC := reg.Counter("interfd_workloads_dropped_total")
	preds := map[string]core.Predictor{}
	models := map[string]*core.Model{}
	scores := map[string]float64{}
	mixWorkloads := make([]workloads.Workload, 0, len(cfg.mix))
	bcfg := core.DefaultBuildConfig()
	bcfg.Samples = cfg.samples
	bcfg.Seed = cfg.seed
	bcfg.Telemetry = reg
	bcfg.Tracer = tracer
	for _, raw := range cfg.mix {
		name := strings.TrimSpace(raw)
		w, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		t0 := time.Now()
		m, err := buildModelWithRetry(ctx, cfg, env, w, bcfg, retriesC, logger)
		if err != nil {
			droppedC.Inc()
			logger.Warn("workload dropped after persistent profiling failure",
				"workload", name, "err", err)
			bus.Publish("workload_dropped", map[string]any{"workload": name, "err": err.Error()})
			continue
		}
		obs.WithSpan(logger, "core.build-model/"+name, tracer.Total()).
			Info("model built", "workload", name, "bubble_score", m.BubbleScore,
				"wall", time.Since(t0).Round(time.Millisecond).String())
		preds[name] = m
		models[name] = m
		scores[name] = m.BubbleScore
		if m.Matrix != nil {
			if err := tracker.Register(name, m.Matrix.Pressures, m.Matrix.Nodes, 0); err != nil {
				logger.Warn("drift registration failed", "workload", name, "err", err)
			}
		}
		if inj != nil {
			// The naive fallback needs only the analytic sensitivity curve,
			// so its construction cannot be hit by the failure hook.
			if p, err := resilientPredictor(inj, env, w, m, bcfg.Nodes, reg, logger); err == nil {
				preds[name] = p
			} else {
				logger.Warn("naive fallback unavailable; using lossless model", "workload", name, "err", err)
			}
		}
		mixWorkloads = append(mixWorkloads, w)
		if ctx.Err() != nil {
			logger.Info("shutdown during startup profiling")
			return finish()
		}
	}
	env.FailureHook = nil // transient profiling failures target profiling only
	if len(preds) == 0 {
		logger.Error("every workload dropped during profiling; draining")
		return finish()
	}
	// Arm the placement API with the startup models: /api/place and
	// /api/whatif flip from 503 to live along with /readyz.
	svc.SetBackend(serve.Backend{Predictors: preds, Scores: scores})
	srv.SetReady(true)
	logger.Info("ready", "addr", running.Addr, "policy", cfg.policy.String(),
		"mix", strings.Join(cfg.mix, ","))

	if cfg.serveOnly {
		logger.Info("serve-only mode: placement API live, round loop disabled")
		<-ctx.Done()
		srv.SetReady(false)
		if err := finish(); err != nil {
			return err
		}
		logger.Info("final report written", "path", cfg.reportPath, "spans", tracer.Total())
		return nil
	}

	roundsC := reg.Counter("interfd_rounds_total")
	roundSecs := reg.Histogram("interfd_round_wall_seconds", telemetry.ExpBuckets(0.01, 2, 12))
	uptime := reg.Gauge("interfd_uptime_seconds")
	start := time.Now()

	spec := schedule.StreamSpec{
		MeanInterarrival: meanInterarrival,
		Jobs:             cfg.batch,
		Units:            jobUnits,
		WorkMin:          cfg.workMin,
		WorkMax:          cfg.workMax,
		QoSFraction:      qosFraction,
		QoSBound:         qosBound,
	}
	for _, w := range mixWorkloads {
		spec.Mix = append(spec.Mix, schedule.MixEntry{Workload: w, Weight: 1})
	}

	mixReg := make(map[string]workloads.Workload, len(mixWorkloads))
	for _, w := range mixWorkloads {
		mixReg[w.Name] = w
	}
	dp := &driftPlane{
		tracker: tracker, audit: audit,
		models: models, mixReg: mixReg,
		hosts: cfg.hosts, inj: inj,
	}

	for round := 0; cfg.rounds == 0 || round < cfg.rounds; round++ {
		if ctx.Err() != nil {
			logger.Info("draining complete, shutting down", "rounds", round)
			break
		}
		var downs []int
		if inj != nil {
			inj.Activate(round) // late-round crashes/degrades arm here
			downs = inj.DownHosts()
		}
		t0 := time.Now()
		if err := runRound(cfg, round, env, preds, scores, spec, downs, dp, reg, tracer, bus, logger); err != nil {
			return err
		}
		roundsC.Inc()
		roundSecs.Observe(time.Since(t0).Seconds())
		uptime.Set(time.Since(start).Seconds())
		// Convergence series are append-only; cap them so a long-running
		// daemon's registry (and /api/report) stays bounded.
		reg.TrimSeries(cfg.seriesCap)
		bus.Publish("round_done", map[string]any{
			"round": round, "wall_seconds": time.Since(t0).Seconds(),
		})
		if cfg.roundPause > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(cfg.roundPause):
			}
		}
	}

	srv.SetReady(false)
	if err := finish(); err != nil {
		return err
	}
	logger.Info("final report written", "path", cfg.reportPath,
		"rounds", roundsC.Value(), "spans", tracer.Total())
	return nil
}

// driftPlane bundles the model-drift observability state runRound feeds:
// the residual tracker, the decision audit log, the raw (unwrapped) models
// whose heterogeneity policies map pressure vectors to matrix coordinates,
// and the workload registry ground-truth measurement needs.
type driftPlane struct {
	tracker *drift.Tracker
	audit   *drift.AuditLog
	models  map[string]*core.Model
	mixReg  map[string]workloads.Workload
	hosts   int
	inj     *fault.Injector
}

// observeRound closes the prediction loop for one placement round: it
// measures what the chosen placement actually does on the ground-truth
// simulator, feeds each application's (predicted, observed) pair into the
// drift tracker at the matrix coordinates the prediction used, fires any
// drift events onto the bus, and appends the round's decision record to
// the audit log.
func (dp *driftPlane) observeRound(round int, res placement.Result, env *measure.Env,
	scores map[string]float64, downs []int, predHits, predMisses uint64,
	bus *obs.Bus, logger *slog.Logger) {

	actual, err := env.RunPlacement(res.Placement, dp.mixReg)
	if err != nil {
		// The observation plane must never take the daemon down; record
		// the decision without observed values.
		logger.Warn("drift ground-truth measurement failed", "round", round, "err", err)
		actual = nil
	}

	dec := drift.Decision{
		Round:      round,
		Assignment: map[string][]string{},
		Objective:  res.Objective, Evaluations: res.Evaluations,
		QoSSatisfied:  res.QoSSatisfied,
		Predicted:     map[string]float64{},
		PredCacheHits: predHits, PredCacheMisses: predMisses,
	}
	if len(downs) > 0 {
		dec.DownHosts = append([]int(nil), downs...)
	}
	if dp.inj != nil {
		for h := 0; h < dp.hosts; h++ {
			if f := dp.inj.DegradeFactor(h); f > 1 {
				if dec.DegradedHosts == nil {
					dec.DegradedHosts = map[int]float64{}
				}
				dec.DegradedHosts[h] = f
			}
		}
		for _, n := range dp.inj.Counts() {
			dec.FaultEvents += n
		}
	}

	names := make([]string, 0, len(res.Predicted))
	for name := range res.Predicted {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		predicted := res.Predicted[name]
		dec.Predicted[name] = predicted
		for _, up := range res.Placement.UnitPositions(name) {
			dec.Assignment[name] = append(dec.Assignment[name], fmt.Sprintf("%d:%d", up.Host, up.Slot))
		}
		out, ok := actual[name]
		if !ok {
			continue
		}
		if dec.Observed == nil {
			dec.Observed = map[string]float64{}
			dec.Residuals = map[string]float64{}
		}
		dec.Observed[name] = out.Normalized
		if predicted > 0 {
			dec.Residuals[name] = (out.Normalized - predicted) / predicted
		}
		m := dp.models[name]
		if m == nil || m.Matrix == nil {
			continue
		}
		ps, err := core.PressuresFor(res.Placement, name, scores)
		if err != nil {
			logger.Warn("drift pressure vector failed", "app", name, "err", err)
			continue
		}
		p, cnt, err := m.Policy.Convert(ps)
		if err != nil {
			logger.Warn("drift coordinate conversion failed", "app", name, "err", err)
			continue
		}
		if err := dp.tracker.Observe(name, p, cnt, predicted, out.Normalized, round); err != nil {
			logger.Warn("drift observation rejected", "app", name, "err", err)
		}
	}

	events := dp.tracker.EndRound(round)
	for _, ev := range events {
		logger.Warn("model drift detected", "app", ev.App, "reason", ev.Reason,
			"recent_abs_residual", ev.RecentAbsResidual,
			"stale_cells", ev.StaleCells, "recommended_cells", len(ev.Cells),
			"round", ev.Round)
		bus.Publish("drift_detected", ev)
	}
	dec.DriftEvents = events
	dp.audit.Append(dec)
}

// runRound performs one scheduling round: a placement-search sweep over
// the full mix (streaming convergence samples to the bus), then a fresh
// Poisson job stream through the online cluster manager (streaming job
// lifecycle events).
func runRound(cfg daemonConfig, round int, env *measure.Env,
	preds map[string]core.Predictor, scores map[string]float64,
	spec schedule.StreamSpec, downs []int, dp *driftPlane,
	reg *telemetry.Registry, tracer *telemetry.Tracer,
	bus *obs.Bus, logger *slog.Logger) error {

	span := tracer.StartSpan(fmt.Sprintf("interfd.round/%d", round))
	defer span.End()

	// Crashed hosts shrink the cluster: per-app units contract to what
	// the surviving slots can hold, and both the sweep and the online
	// manager are told to avoid the down hosts.
	surviving := (cfg.hosts - len(downs)) * cfg.slots
	names := make([]string, 0, len(preds))
	for name := range preds {
		names = append(names, name)
	}
	sort.Strings(names)
	units := cfg.units
	if len(names) > 0 && units > surviving/len(names) {
		units = surviving / len(names)
	}
	if units < 1 || jobUnits > surviving {
		logger.Warn("surviving capacity too small for this round; skipping",
			"round", round, "surviving_slots", surviving, "down_hosts", len(downs))
		bus.Publish("round_skipped", map[string]any{"round": round, "surviving_slots": surviving})
		return nil
	}

	// Placement-search sweep: the reference "best consolidation" of the
	// current mix, recomputed with a round-specific seed so the stream of
	// convergence samples keeps moving.
	demands := make([]cluster.Demand, 0, len(names))
	for _, name := range names {
		demands = append(demands, cluster.Demand{App: name, Units: units})
	}
	req := placement.Request{
		NumHosts: cfg.hosts, SlotsPerHost: cfg.slots,
		Demands: demands, Predictors: preds, Scores: scores,
		DownHosts: downs,
	}
	pcfg := placement.DefaultConfig(cfg.seed + int64(round))
	pcfg.Iterations = cfg.searchIters
	pcfg.Restarts = cfg.searchRestarts
	if pcfg.Restarts <= 0 {
		pcfg.Restarts = 1
	}
	pcfg.Cells = cfg.searchCells
	if cfg.searchCells == 0 {
		pcfg.Cells = placement.AdaptiveCells(cfg.hosts, runtime.GOMAXPROCS(0))
	}
	pcfg.ExchangeIters = cfg.searchExchange
	pcfg.Telemetry = reg
	pcfg.Tracer = tracer
	pcfg.OnProgress = func(s placement.ProgressSample) {
		if s.Step%25 == 0 {
			bus.Publish("placement_sample", s)
		}
	}
	hits0 := reg.Counter(placement.MetricPredCacheHits).Value()
	misses0 := reg.Counter(placement.MetricPredCacheMisses).Value()
	res, err := placement.Search(req, pcfg)
	if err != nil {
		return fmt.Errorf("interfd: round %d search: %w", round, err)
	}
	cluster.RecordOccupancy(reg, res.Placement)
	bus.Publish("placement_done", map[string]any{
		"round": round, "objective": res.Objective, "evaluations": res.Evaluations,
	})

	// Close the prediction loop: measure the chosen placement on the
	// ground-truth simulator and feed residuals to the drift tracker and
	// the decision audit.
	if dp != nil {
		dp.observeRound(round, res, env, scores, downs,
			reg.Counter(placement.MetricPredCacheHits).Value()-hits0,
			reg.Counter(placement.MetricPredCacheMisses).Value()-misses0,
			bus, logger)
	}

	// Job stream through the online cluster manager.
	jobs, err := schedule.Generate(spec, cfg.seed+int64(round))
	if err != nil {
		return fmt.Errorf("interfd: round %d stream: %w", round, err)
	}
	scfg := schedule.Config{
		NumHosts: cfg.hosts, SlotsPerHost: cfg.slots,
		Policy: cfg.policy, Predictors: preds, Scores: scores,
		Seed:      cfg.seed + int64(round),
		DownHosts: downs,
		Telemetry: reg,
		OnEvent: func(ev schedule.Event) {
			bus.Publish(ev.Kind.String(), ev)
		},
	}
	sres, err := schedule.Run(env, scfg, jobs)
	if err != nil {
		return fmt.Errorf("interfd: round %d schedule: %w", round, err)
	}
	logger.Debug("round complete", "round", round,
		"jobs", len(sres.Outcomes), "makespan", sres.Makespan,
		"mean_stretch", sres.MeanStretch, "qos_violations", sres.QoSViolations,
		"search_objective", res.Objective)
	return nil
}

// buildModelWithRetry builds the interference model for w, retrying
// transient profiling failures up to cfg.profileRetries extra times with
// exponential backoff.
func buildModelWithRetry(ctx context.Context, cfg daemonConfig, env *measure.Env,
	w workloads.Workload, bcfg core.BuildConfig,
	retries *telemetry.Counter, logger *slog.Logger) (*core.Model, error) {

	backoff := cfg.profileBackoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	var lastErr error
	for attempt := 0; attempt <= cfg.profileRetries; attempt++ {
		if attempt > 0 {
			retries.Inc()
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		m, err := core.BuildModel(env, w, bcfg)
		if err == nil {
			return m, nil
		}
		lastErr = err
		logger.Warn("model build attempt failed", "workload", w.Name,
			"attempt", attempt+1, "err", err)
	}
	return nil, fmt.Errorf("interfd: model for %s: %w", w.Name, lastErr)
}

// resilientPredictor applies the plan's profile-cell loss to the model's
// matrix and, when cells were actually lost, wraps the partial model with
// the naive proportional fallback so every query still answers (counted
// in model_fallback_total).
func resilientPredictor(inj *fault.Injector, env *measure.Env,
	w workloads.Workload, m *core.Model, nodes int,
	reg *telemetry.Registry, logger *slog.Logger) (core.Predictor, error) {

	lossy := inj.ApplyCellLoss(m.Matrix, w.Name)
	if lossy == m.Matrix {
		return m, nil
	}
	naive, err := core.BuildNaiveModel(env, w, nodes)
	if err != nil {
		return nil, err
	}
	lm := *m
	lm.Matrix = lossy
	logger.Info("profile cells lost; naive fallback armed", "workload", w.Name,
		"fraction", inj.CellLossFraction())
	return core.NewResilient(w.Name, core.Partial{M: &lm}, naive, reg), nil
}
