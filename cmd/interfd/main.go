// Command interfd is the long-running interference-management daemon. It
// profiles a workload mix once at startup and then serves placement as a
// service on one listener: POST /api/place runs the interference-aware
// search for an arbitrary app mix (an admission queue in front of a pool
// of search workers), POST /api/whatif scores one concrete placement, and
// /api/slo reports the latency-SLO burn rate — beside the observability
// plane (Prometheus /metrics, health and readiness probes, /api/report,
// /api/spans, /api/drift, /api/decisions, an SSE event stream, and pprof).
//
// What the service decides is what gets checked. A verified decision is
// run on the ground-truth simulator, each application's (predicted,
// observed) pair feeds the drift tracker, and the record is appended to
// the decision audit log. A fixed 1 in 512 of the API's decisions (chosen
// by request content hash) is verified, on the worker that searched it and
// after its caller has the answer. Unless -serve-only is given the daemon
// also drives itself: an in-process client of the same service places the
// whole mix once per round (-rounds N, 0 = until signalled), and every one
// of those decisions is verified.
//
// SIGINT/SIGTERM drain it: readiness off, the self-driver stops, searches
// in flight finish and are verified, the audit log and the final RunReport
// are written, and the HTTP plane stops.
//
// Examples:
//
//	interfd -listen :8080
//	interfd -listen :8080 -rounds 10 -report -
//	interfd -listen :8080 -serve-only
//	curl localhost:8080/readyz; curl localhost:8080/metrics
//	curl -XPOST -d '{"apps":[{"app":"M.lmps","units":4}]}' localhost:8080/api/place
//	curl -N localhost:8080/api/events
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/fault"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// daemonConfig collects every tunable of the daemon so tests can run it
// in-process.
type daemonConfig struct {
	listen         string
	seed           int64
	mix            []string
	units          int // units per app the self-driver asks for
	hosts, slots   int
	rounds         int // self-driven decisions; 0 = until the context is cancelled
	samples        int // heterogeneity samples per model build
	workers        int // measurement batch workers and placement API search workers (0 = GOMAXPROCS)
	searchIters    int // placement-search iterations per request
	searchRestarts int // parallel annealing restarts per request
	roundPause     time.Duration
	reportPath     string
	tracePath      string
	faultsPath     string        // JSON fault plan to inject ("" = none)
	profileRetries int           // extra build attempts after the first
	profileBackoff time.Duration // initial retry backoff, doubled per attempt

	// Drift observability (internal/drift): the residual tracker's tuning
	// (fixed; tests lower the warm-up) and the decision audit log.
	drift          drift.Config
	driftAuditPath string // JSONL decision audit file ("" = none)

	// Placement-as-a-service plane (internal/serve) and its latency SLO
	// (fixed at obs.DefaultSLOConfig; tests tighten it).
	serveOnly  bool   // no self-driver; serve the API until signalled
	addrFile   string // write the bound listen address to this file ("" = none)
	serveQueue int    // admission-queue depth
	slo        obs.SLOConfig

	// notifyAddr, when non-nil, receives the bound listen address once
	// the plane is up (test hook).
	notifyAddr func(string)
}

func defaultDaemonConfig() daemonConfig {
	return daemonConfig{
		listen: ":8080", seed: 1,
		mix:   []string{"M.lmps", "C.libq", "H.KM", "N.cg"},
		units: 4, hosts: 8, slots: 2,
		samples: 15, searchIters: 600, searchRestarts: 1,
		reportPath:     "interfd-report.json",
		profileRetries: 3, profileBackoff: 50 * time.Millisecond,
		drift:          drift.DefaultConfig(),
		driftAuditPath: "interfd-decisions.jsonl",
		serveQueue:     64,
		slo:            obs.DefaultSLOConfig(),
	}
}

func main() {
	cfg, of, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "interfd:", err)
		os.Exit(1)
	}
	logger, err := of.Logger("interfd", os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "interfd:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runDaemon(ctx, cfg, logger); err != nil {
		logger.Error("daemon failed", "err", err)
		os.Exit(1)
	}
}

// parseFlags reads the daemon's flags over the defaults. It rejects
// positional arguments, which the daemon takes none of, before anything
// is opened.
func parseFlags(args []string, stderr io.Writer) (daemonConfig, obs.Flags, error) {
	cfg := defaultDaemonConfig()
	fs := flag.NewFlagSet("interfd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mixCSV := fs.String("mix", strings.Join(cfg.mix, ","), "comma-separated workload mix to profile and serve")
	fs.StringVar(&cfg.listen, "listen", cfg.listen, "listen address (/api/place, /api/whatif, /metrics, /healthz, /readyz, /api/*, /debug/pprof/)")
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "experiment seed")
	fs.IntVar(&cfg.rounds, "rounds", cfg.rounds, "self-driven placement decisions to make and verify (0 = until SIGINT/SIGTERM)")
	fs.IntVar(&cfg.samples, "profile-samples", cfg.samples, "heterogeneity samples per startup model build")
	fs.IntVar(&cfg.workers, "workers", cfg.workers, "measurement batch workers and placement API search workers (0 = GOMAXPROCS, 1 = serial; results are identical either way)")
	fs.IntVar(&cfg.searchIters, "search-iters", cfg.searchIters, "placement-search iterations per request that does not set its own")
	fs.IntVar(&cfg.searchRestarts, "search-restarts", cfg.searchRestarts, "independent annealing restarts per request, run in parallel")
	fs.StringVar(&cfg.faultsPath, "faults", "", "JSON fault plan to inject (node crashes, degrades, profile-cell loss, transient profiling failures)")
	fs.StringVar(&cfg.driftAuditPath, "drift-audit", cfg.driftAuditPath, "write the placement decision audit log (JSON Lines) to this file at drain ('' = none)")
	fs.BoolVar(&cfg.serveOnly, "serve-only", cfg.serveOnly, "no self-driver: profile, arm the placement API, and serve until SIGINT/SIGTERM")
	fs.StringVar(&cfg.addrFile, "addr-file", cfg.addrFile, "write the bound listen address to this file once the plane is up")
	fs.IntVar(&cfg.serveQueue, "serve-queue", cfg.serveQueue, "placement API admission-queue depth (full queue answers 429)")
	fs.StringVar(&cfg.reportPath, "report", cfg.reportPath, "write the final JSON RunReport to this file ('-' for stdout)")
	var of obs.Flags
	of.RegisterLogging(fs)
	if err := fs.Parse(args); err != nil {
		return cfg, of, err
	}
	if fs.NArg() > 0 {
		return cfg, of, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	cfg.mix, cfg.tracePath = strings.Split(*mixCSV, ","), of.Trace
	return cfg, of, nil
}

// daemon is what the lifecycle phases hand to one another.
type daemon struct {
	cfg    daemonConfig
	log    *slog.Logger
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	bus    *obs.Bus
	report *telemetry.RunReport

	dp      *driftPlane
	svc     *serve.Service
	srv     *obs.Server
	running *obs.Running

	// The self-driver, when armed started one.
	stopDriver context.CancelFunc
	driverDone chan struct{}
	driverErr  error
}

// runDaemon is the whole daemon lifecycle, one phase after another: plane
// up, profile, armed, draining, flushed. Once the plane is up there is one
// way out, and it drains and flushes whatever the earlier phases got to.
func runDaemon(ctx context.Context, cfg daemonConfig, logger *slog.Logger) error {
	d, err := planeUp(cfg, logger)
	if err != nil {
		return err
	}
	err = d.profile(ctx)
	if err == nil && ctx.Err() == nil && len(d.dp.backend.Predictors) > 0 {
		d.armed(ctx)
	}
	return errors.Join(err, d.draining(), d.flushed())
}

// planeUp is phase one: the registry, the drift tracker and audit log, the
// SLO tracker and the placement service all exist before the listener
// binds, so every endpoint is mounted and race-free from the first request.
// The service answers 503, and /readyz too, until armed.
func planeUp(cfg daemonConfig, logger *slog.Logger) (*daemon, error) {
	d := &daemon{
		cfg: cfg, log: logger,
		reg:    telemetry.NewRegistry(),
		tracer: telemetry.NewTracer(telemetry.DefaultSpanCapacity),
		bus:    obs.NewBus(obs.DefaultBusBuffer),
		report: telemetry.NewRunReport("interfd", cfg.seed, os.Args[1:]),
	}
	telemetry.RegisterBuildInfo(d.reg)

	tracker, err := drift.New(cfg.drift, d.reg)
	if err != nil {
		return nil, err
	}
	d.report.SetDriftSource(tracker.SnapshotAny)
	d.dp = &driftPlane{
		tracker: tracker, audit: drift.NewAuditLog(drift.DefaultAuditCap),
		reg: d.reg, bus: d.bus, log: logger,
		hosts: cfg.hosts, driven: make(chan struct{}, 1),
	}

	slo, err := obs.NewSLOTracker(cfg.slo, d.reg, d.bus)
	if err != nil {
		return nil, err
	}
	d.svc, err = serve.New(serve.Config{
		NumHosts: cfg.hosts, SlotsPerHost: cfg.slots,
		Seed:       cfg.seed,
		Iterations: cfg.searchIters, Restarts: cfg.searchRestarts,
		QueueDepth: cfg.serveQueue, Workers: cfg.workers,
		Telemetry: d.reg, Tracer: d.tracer, SLO: slo, Logger: logger,
		OnDecision: d.dp.onDecision,
	})
	if err != nil {
		return nil, err
	}
	d.dp.svc = d.svc

	d.srv = obs.New(obs.Options{
		Registry: d.reg, Tracer: d.tracer, Bus: d.bus, Report: d.report, Logger: logger,
		DriftSnapshot:  tracker.SnapshotAny,
		DecisionsJSONL: d.dp.audit.WriteJSONL,
		SLOSnapshot:    func() any { return slo.Snapshot() },
		Runtime:        obs.NewRuntimeCollector(d.reg),
		Routes:         d.svc.Routes(),
	})
	if d.running, err = d.srv.Start(cfg.listen); err != nil {
		d.svc.Close()
		return nil, err
	}
	if cfg.addrFile != "" {
		if err := os.WriteFile(cfg.addrFile, []byte(d.running.Addr+"\n"), 0o644); err != nil {
			d.svc.Close()
			d.planeDown()
			return nil, fmt.Errorf("interfd: write addr file: %w", err)
		}
	}
	if cfg.notifyAddr != nil {
		cfg.notifyAddr(d.running.Addr)
	}
	return d, nil
}

// profile is phase two: load the fault plan, then build one interference
// model per mix workload. The daemon is alive (/healthz) but not ready
// (/readyz 503) while it runs. The plan's round-0 faults activate first,
// so crashes, degrades and transient profiling failures shape profiling
// too: each build retries with exponential backoff, a workload whose
// builds keep failing is dropped (counted, logged) rather than crashing
// the daemon, and a lossy matrix is wrapped in a resilient predictor that
// falls back to the naive proportional model on lost cells.
func (d *daemon) profile(ctx context.Context) error {
	cfg, dp := d.cfg, d.dp
	if cfg.faultsPath != "" {
		plan, err := fault.LoadPlan(cfg.faultsPath)
		if err != nil {
			return err
		}
		if h := plan.MaxHost(); h >= cfg.hosts {
			return fmt.Errorf("interfd: fault plan names host %d, cluster has %d", h, cfg.hosts)
		}
		if dp.inj, err = fault.New(plan, d.reg); err != nil {
			return err
		}
		dp.inj.OnEvent = func(f fault.Fault) {
			d.log.Warn("fault injected", "kind", f.Kind.String(), "host", f.Host,
				"factor", f.Factor, "fraction", f.Fraction, "rate", f.Rate, "round", f.Round)
			d.bus.Publish("fault_injected", f)
		}
		dp.inj.Activate(0)
		dp.backend.DownHosts = dp.inj.DownHosts()
	}

	env, err := measure.NewEnv(cluster.Default(), cfg.seed)
	if err != nil {
		return err
	}
	env.Telemetry = d.reg
	env.Tracer = d.tracer
	env.Workers = cfg.workers
	// The content cache memoizes repeated profiling settings across the
	// mix; it disables itself automatically while host degradation from an
	// active fault plan could change measured values.
	env.Cache = measure.NewCache()
	if dp.inj != nil {
		env.HostDegrade = dp.inj.DegradeFactor
		env.FailureHook = dp.inj.FailureHook
	}
	// Failures, counters and the content cache are for profiling. The
	// verification runs that follow keep the span but stay out of the
	// profiling counters, and the cache's 1.3 MB would lift the serving
	// heap off the collector's fixed 4 MB floor (docs/OBSERVABILITY.md,
	// "What verification keeps in memory").
	defer func() { env.FailureHook, env.Telemetry, env.Cache = nil, nil, nil }()
	dp.env = env

	retriesC := d.reg.Counter("interfd_profile_retries_total")
	droppedC := d.reg.Counter("interfd_workloads_dropped_total")
	preds, scores := map[string]core.Predictor{}, map[string]float64{}
	dp.backend.Predictors, dp.backend.Scores = preds, scores
	dp.models = map[string]*core.Model{}
	dp.mixReg = map[string]workloads.Workload{}
	bcfg := core.DefaultBuildConfig()
	bcfg.Samples = cfg.samples
	bcfg.Seed = cfg.seed
	bcfg.Telemetry = d.reg
	bcfg.Tracer = d.tracer
	for _, raw := range cfg.mix {
		if ctx.Err() != nil {
			d.log.Info("shutdown during startup profiling")
			return nil
		}
		name := strings.TrimSpace(raw)
		w, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		t0 := time.Now()
		m, err := buildModelWithRetry(ctx, cfg, env, w, bcfg, retriesC, d.log)
		if err != nil {
			droppedC.Inc()
			d.log.Warn("workload dropped after persistent profiling failure",
				"workload", name, "err", err)
			d.bus.Publish("workload_dropped", map[string]any{"workload": name, "err": err.Error()})
			continue
		}
		obs.WithSpan(d.log, "core.build-model/"+name, d.tracer.Total()).
			Info("model built", "workload", name, "bubble_score", m.BubbleScore,
				"wall", time.Since(t0).Round(time.Millisecond).String())
		preds[name] = m
		dp.models[name] = m
		scores[name] = m.BubbleScore
		dp.mixReg[name] = w
		if m.Matrix != nil {
			if err := dp.tracker.Register(name, m.Matrix.Pressures, m.Matrix.Nodes, 0); err != nil {
				d.log.Warn("drift registration failed", "workload", name, "err", err)
			}
		}
		if dp.inj != nil {
			// The naive fallback needs only the analytic sensitivity curve
			// and the matrix already built, so its construction cannot be
			// hit by the failure hook.
			if p, err := resilientPredictor(dp.inj, env, w, m, bcfg.Nodes, d.reg, d.log); err == nil {
				preds[name] = p
			} else {
				d.log.Warn("naive fallback unavailable; using lossless model", "workload", name, "err", err)
			}
		}
	}
	if len(preds) == 0 {
		d.log.Error("every workload dropped during profiling; draining")
	}
	return nil
}

// armed is phase three: the startup models arm the placement API —
// /api/place and /api/whatif flip from 503 to live along with /readyz —
// and the daemon serves until ctx is cancelled or, with a round budget,
// until the self-driver has spent it.
func (d *daemon) armed(ctx context.Context) {
	d.svc.SetBackend(d.dp.backend)
	d.srv.SetReady(true)
	d.log.Info("ready", "addr", d.running.Addr, "mix", strings.Join(d.cfg.mix, ","))

	if d.cfg.serveOnly {
		d.log.Info("serve-only mode: placement API live, no self-driver")
		<-ctx.Done()
		return
	}
	driveCtx, stop := context.WithCancel(ctx)
	d.stopDriver, d.driverDone = stop, make(chan struct{})
	go func() {
		defer close(d.driverDone)
		d.driverErr = d.drive(driveCtx)
	}()
	select {
	case <-ctx.Done():
	case <-d.driverDone:
	}
}

// drive is the self-driver: an in-process client of the daemon's own
// placement service. Round r asks for the whole surviving mix — contracted
// to what the hosts still up can hold — with seed cfg.seed+r, and r+1 is
// not asked until decision r is in the audit ring, so a driver talking
// alone leaves the same audit log on every same-seed run.
func (d *daemon) drive(ctx context.Context) error {
	roundsC := d.reg.Counter("interfd_rounds_total")
	roundSecs := d.reg.Histogram("interfd_round_wall_seconds", telemetry.ExpBuckets(0.01, 2, 12))
	apps := make([]serve.AppDemand, 0, len(d.dp.backend.Predictors))
	for name := range d.dp.backend.Predictors {
		apps = append(apps, serve.AppDemand{App: name})
	}
	slices.SortFunc(apps, func(a, b serve.AppDemand) int { return strings.Compare(a.App, b.App) })

	for round := 0; (d.cfg.rounds == 0 || round < d.cfg.rounds) && ctx.Err() == nil; {
		surviving := d.cfg.hosts * d.cfg.slots
		if d.dp.inj != nil {
			surviving -= len(d.dp.inj.DownHosts()) * d.cfg.slots
		}
		units := min(d.cfg.units, surviving/len(apps))
		if units < 1 {
			// Only more verified decisions could change the down-host set,
			// and there is no room left to make one.
			d.log.Warn("surviving capacity too small for the mix; self-driver stopped",
				"round", round, "surviving_slots", surviving)
			return nil
		}
		for i := range apps {
			apps[i].Units = units
		}
		t0 := time.Now()
		_, status, err := d.svc.Place(serve.PlaceRequest{
			ID: fmt.Sprintf("%s%d", driverIDPrefix, round), Apps: apps, Seed: d.cfg.seed + int64(round),
		})
		switch {
		case err == nil:
			select {
			case <-d.dp.driven: // decision `round` is verified and audited
			case <-ctx.Done(): // draining waits for it instead
			}
		case status == http.StatusTooManyRequests:
			// API traffic filled the admission queue; ask again.
			pause(ctx, 10*time.Millisecond)
			continue
		default:
			return fmt.Errorf("interfd: round %d: %w", round, err)
		}
		roundsC.Inc()
		roundSecs.Observe(time.Since(t0).Seconds())
		round++
		pause(ctx, d.cfg.roundPause)
	}
	return nil
}

// pause waits for dur or for ctx, whichever ends first.
func pause(ctx context.Context, dur time.Duration) {
	if dur <= 0 {
		return
	}
	select {
	case <-ctx.Done():
	case <-time.After(dur):
	}
}

// draining is phase four, in this order: readiness off, so nothing new is
// routed here; the self-driver stops after the decision it is waiting on;
// the service closes — 503 to what is still queued, and every search
// already on a worker finishes, is answered and, where it is due, verified.
// After it nothing writes to the audit log or the drift tracker.
func (d *daemon) draining() error {
	d.srv.SetReady(false)
	if d.stopDriver != nil {
		d.stopDriver()
		<-d.driverDone
	}
	d.svc.Close()
	d.log.Info("draining complete, shutting down",
		"rounds", d.reg.Counter("interfd_rounds_total").Value(), "verified", d.dp.audit.Total())
	return d.driverErr
}

// flushed is phase five, the daemon's one flush site: the decision audit
// (tmp+rename, so SIGTERM never leaves a truncated log) and the final
// report go to disk, then the plane comes down.
func (d *daemon) flushed() error {
	defer d.planeDown()
	audit, path := d.dp.audit, d.cfg.driftAuditPath
	if err := audit.SaveFile(path); err != nil {
		d.log.Warn("decision audit flush failed", "path", path, "err", err)
	} else if path != "" {
		d.log.Info("decision audit written", "path", path,
			"records", audit.Len(), "evicted", audit.Dropped())
	}
	if err := telemetry.Emit(d.report, d.reg, d.tracer, d.cfg.reportPath, d.cfg.tracePath); err != nil {
		return err
	}
	d.log.Info("final report written", "path", d.cfg.reportPath, "spans", d.tracer.Total())
	return nil
}

func (d *daemon) planeDown() {
	shutCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := d.running.Shutdown(shutCtx); err != nil {
		d.log.Warn("plane shutdown", "err", err)
	}
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
// the naive proportional fallback, which core.NewResilient anchors to the
// surviving cells, so every query still answers (counted in
// model_fallback_total).
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
