package obs

import (
	"flag"
	"io"
	"log/slog"

	"repro/internal/telemetry"
)

// Flags are the observability options the cmd/ tools share. Register them
// on the tool's FlagSet, then call Start once the tool's own inputs have
// been validated.
type Flags struct {
	Metrics   string // -metrics: RunReport path ("" = none, "-" = stdout)
	Trace     string // -trace: span dump path ("" = none, "-" = stdout)
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
// -metrics.
func (f *Flags) Register(fs *flag.FlagSet) {
	f.RegisterLogging(fs)
	fs.StringVar(&f.Metrics, "metrics", "", "write a JSON RunReport (metrics snapshot) to this file at exit ('-' for stdout)")
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
// logger, registry and tracer the tool instruments itself with, and the
// RunReport they end up in at exit.
type BatchRun struct {
	Logger   *slog.Logger
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer

	flags  Flags
	report *telemetry.RunReport
}

// Start opens the run: logger on stderr, registry with build info, tracer,
// and RunReport over (tool, seed, args). Every successful Start must be
// paired with Close.
func (f *Flags) Start(tool string, seed int64, args []string, stderr io.Writer) (*BatchRun, error) {
	logger, err := f.Logger(tool, stderr)
	if err != nil {
		return nil, err
	}
	r := &BatchRun{
		Logger:   logger,
		Registry: telemetry.NewRegistry(),
		Tracer:   telemetry.NewTracer(telemetry.DefaultSpanCapacity),
		flags:    *f,
		report:   telemetry.NewRunReport(tool, seed, args),
	}
	telemetry.RegisterBuildInfo(r.Registry)
	return r, nil
}

// Close ends the run on every path, failed or not: the -metrics and
// -trace files are written. Deferred as Close(&err) from the tool's run
// function; a failure to write the files becomes the run's error unless
// it already has one.
func (r *BatchRun) Close(errp *error) {
	err := telemetry.Emit(r.report, r.Registry, r.Tracer, r.flags.Metrics, r.flags.Trace)
	if *errp == nil {
		*errp = err
	}
}
