package obs

import (
	"context"
	"flag"
	"io"
	"log/slog"
	"time"

	"repro/internal/telemetry"
)

// Flags are the observability options the cmd/ tools share. Register them
// on the tool's FlagSet, then call Start once the tool's own inputs have
// been validated.
type Flags struct {
	Metrics   string // -metrics: RunReport path ("" = none, "-" = stdout)
	Trace     string // -trace: span dump path ("" = none, "-" = stdout)
	Listen    string // -listen: observability plane address ("" = none)
	LogFormat string // -log-format: text or json
	LogLevel  string // -log-level: debug, info, warn, error
}

// RegisterLogging registers -trace, -log-format and -log-level: the part
// of the set the interfd daemon, which owns its plane and report
// lifecycle, shares with the batch tools.
func (f *Flags) RegisterLogging(fs *flag.FlagSet) {
	fs.StringVar(&f.Trace, "trace", "", "write recorded spans as JSON to this file at exit ('-' for stdout)")
	fs.StringVar(&f.LogFormat, "log-format", LogText, "log format: text or json")
	fs.StringVar(&f.LogLevel, "log-level", "info", "log level: debug, info, warn, error")
}

// Register registers a batch tool's whole set: RegisterLogging plus
// -metrics and, for tools that serve the plane while they run, -listen.
func (f *Flags) Register(fs *flag.FlagSet, listen bool) {
	f.RegisterLogging(fs)
	fs.StringVar(&f.Metrics, "metrics", "", "write a JSON RunReport (metrics snapshot) to this file at exit ('-' for stdout)")
	if listen {
		fs.StringVar(&f.Listen, "listen", "", "serve the observability plane (/metrics, /healthz, /readyz, /api/*, /debug/pprof/) on this address for the duration of the run, e.g. :9090")
	}
}

// Logger builds the tool's structured logger on w from -log-format and
// -log-level, stamped with the tool name and a fresh run ID.
func (f *Flags) Logger(tool string, w io.Writer) (*slog.Logger, error) {
	lvl, err := ParseLevel(f.LogLevel)
	if err != nil {
		return nil, err
	}
	return NewLogger(w, f.LogFormat, lvl, tool, NewRunID(tool))
}

// BatchRun is the observability state of one batch-tool invocation: the
// logger, registry, tracer and event bus the tool instruments itself
// with, the RunReport they end up in, and the optional live plane.
type BatchRun struct {
	Logger   *slog.Logger
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
	Bus      *Bus

	flags  Flags
	report *telemetry.RunReport
	srv    *Server
	plane  *Running
}

// Start opens the run: logger on stderr, registry with build info, tracer,
// RunReport over (tool, seed, args), and the not-yet-ready plane when
// -listen is set. Every successful Start must be paired with Close.
func (f *Flags) Start(tool string, seed int64, args []string, stderr io.Writer) (*BatchRun, error) {
	logger, err := f.Logger(tool, stderr)
	if err != nil {
		return nil, err
	}
	r := &BatchRun{
		Logger:   logger,
		Registry: telemetry.NewRegistry(),
		Tracer:   telemetry.NewTracer(telemetry.DefaultSpanCapacity),
		Bus:      NewBus(DefaultBusBuffer),
		flags:    *f,
		report:   telemetry.NewRunReport(tool, seed, args),
	}
	telemetry.RegisterBuildInfo(r.Registry)
	if f.Listen != "" {
		r.srv = New(Options{Registry: r.Registry, Tracer: r.Tracer, Report: r.report, Bus: r.Bus, Logger: logger})
		if r.plane, err = r.srv.Start(f.Listen); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Ready flips the plane's /readyz to 200: the tool's set-up (profiling,
// model builds) is done and the run proper is live.
func (r *BatchRun) Ready() {
	if r.srv != nil {
		r.srv.SetReady(true)
	}
}

// Close ends the run on every path, failed or not: /readyz goes back to
// 503, the -metrics and -trace files are written, and the plane shuts
// down within two seconds. Deferred as Close(&err) from the tool's run
// function; a failure to write the files becomes the run's error unless
// it already has one.
func (r *BatchRun) Close(errp *error) {
	if r.srv != nil {
		r.srv.SetReady(false)
	}
	err := telemetry.Emit(r.report, r.Registry, r.Tracer, r.flags.Metrics, r.flags.Trace)
	if r.plane != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if serr := r.plane.Shutdown(ctx); serr != nil {
			r.Logger.Warn("plane shutdown", "err", serr)
		}
	}
	if *errp == nil {
		*errp = err
	}
}
