// Command paperrepro regenerates every table and figure of the paper's
// evaluation on the simulated cluster and prints them (or writes a
// markdown report suitable for EXPERIMENTS.md). Its subcommands run the
// method's three offline stages one at a time: sim measures one workload
// under a chosen interference setting, profile builds one workload's
// interference model, and place searches a placement for a mix and
// simulates it.
//
// Examples:
//
//	paperrepro                     # full run, text to stdout
//	paperrepro -quick              # reduced sampling, a few seconds
//	paperrepro -only figure10      # one experiment
//	paperrepro -markdown -o EXPERIMENTS.md
//	paperrepro -quick -metrics -
//	paperrepro sim -workload M.lesl -pressures 8,5,0,0,3,0,0,0
//	paperrepro profile -workload M.milc -alg binary-optimized
//	paperrepro place -apps M.lmps,C.libq,H.KM,N.cg -qos M.lmps -bound 1.25
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ec2"
	"repro/internal/experiments"
	"repro/internal/measure"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		os.Exit(1)
	}
}

// subcommands are the method's offline stages, run one at a time.
var subcommands = map[string]func(args []string, stdout, stderr io.Writer) error{
	"sim":     sim,
	"profile": profile,
	"place":   place,
}

// run dispatches on a first argument that names a subcommand; with none,
// it runs the reproduction.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, ok := subcommands[args[0]]
		if !ok {
			return fmt.Errorf("unknown subcommand %q (want sim, profile or place)", args[0])
		}
		return sub(args[1:], stdout, stderr)
	}
	return repro(args, stdout, stderr)
}

// command is the prologue every entry point shares: one flag set that
// holds the command's own flags beside -seed and the observability flags.
type command struct {
	name string // the RunReport's tool, e.g. "paperrepro place"
	fs   *flag.FlagSet
	seed *int64
	of   obs.Flags
}

func newCommand(name string, seed int64, stderr io.Writer) *command {
	c := &command{name: name, fs: flag.NewFlagSet(name, flag.ContinueOnError)}
	c.fs.SetOutput(stderr)
	c.seed = c.fs.Int64("seed", seed, "experiment seed")
	c.of.Register(c.fs)
	return c
}

// parse parses args and rejects positional arguments, which no command
// takes: ignored, they would hide a misplaced flag or subcommand.
func (c *command) parse(args []string) error {
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if c.fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", c.fs.Arg(0))
	}
	return nil
}

// invocation is one opened run: its logger, registry and tracer, and
// its seed.
type invocation struct {
	*obs.BatchRun
	seed int64
}

// start opens the run once the command has validated its inputs. Every
// successful start must be paired with a deferred Close.
func (c *command) start(args []string, stderr io.Writer) (*invocation, error) {
	o, err := c.of.Start(c.name, *c.seed, args, stderr)
	if err != nil {
		return nil, err
	}
	return &invocation{BatchRun: o, seed: *c.seed}, nil
}

// env is the simulated private cluster, or EC2, at the run's seed,
// instrumented with the run's registry and tracer.
func (r *invocation) env(onEC2 bool) (*measure.Env, error) {
	var env *measure.Env
	var err error
	if onEC2 {
		env, err = ec2.NewEnv(r.seed)
	} else {
		env, err = measure.NewEnv(cluster.Default(), r.seed)
	}
	if err != nil {
		return nil, err
	}
	env.Telemetry = r.Registry
	env.Tracer = r.Tracer
	return env, nil
}

// buildConfig is the default model build at the run's seed, instrumented
// with the run's registry and tracer.
func (r *invocation) buildConfig() core.BuildConfig {
	cfg := core.DefaultBuildConfig()
	cfg.Seed = r.seed
	cfg.Telemetry = r.Registry
	cfg.Tracer = r.Tracer
	return cfg
}

// repro regenerates the paper's evaluation.
func repro(args []string, stdout, stderr io.Writer) (err error) {
	c := newCommand("paperrepro", 2016, stderr)
	var (
		quick    = c.fs.Bool("quick", false, "reduced sampling (seconds instead of minutes)")
		only     = c.fs.String("only", "", "run a single experiment (e.g. figure3, table2)")
		markdown = c.fs.Bool("markdown", false, "emit markdown instead of aligned text")
		extras   = c.fs.Bool("extras", false, "also run the non-paper extras (figure1, ablations, multiway, faults, fleet)")
		outPath  = c.fs.String("o", "", "write to file instead of stdout")
		workers  = c.fs.Int("workers", runtime.GOMAXPROCS(0), "measurement batch and placement search workers (1 = serial; results are identical either way)")
	)
	c.fs.Usage = func() {
		fmt.Fprintln(c.fs.Output(), "Usage: paperrepro [flags]\n       paperrepro sim|profile|place [flags]  (paperrepro <subcommand> -h lists its flags)")
		c.fs.PrintDefaults()
	}
	if err := c.parse(args); err != nil {
		return err
	}

	// Validate every input before anything is measured.
	rs := experiments.Runners()
	if *only != "" {
		single, err := experiments.RunnerByID(*only)
		if err != nil {
			return err
		}
		rs = []experiments.Runner{single}
	} else if *extras {
		rs = append(rs, experiments.ExtraRunners()...)
	}

	r, err := c.start(args, stderr)
	if err != nil {
		return err
	}
	defer r.Close(&err)
	logger := r.Logger

	cfg := experiments.Config{Seed: r.seed, Quick: *quick, Telemetry: r.Registry, Tracer: r.Tracer, Logger: logger, Workers: *workers}
	start := time.Now()

	lab, err := experiments.NewLab(cfg)
	if err != nil {
		return err
	}

	outs, err := lab.Run(rs)
	if err != nil {
		return err
	}
	logger.Info("measurement cache", "hits", lab.Cache.Hits(), "misses", lab.Cache.Misses(), "entries", lab.Cache.Len())

	var b strings.Builder
	if *markdown {
		fmt.Fprintf(&b, "# EXPERIMENTS — paper vs. measured\n\n")
		fmt.Fprintf(&b, "Regenerated by `cmd/paperrepro` (seed %d, quick=%v) in %s.\n\n",
			r.seed, *quick, time.Since(start).Round(time.Millisecond))
	}
	for _, o := range outs {
		if *markdown {
			b.WriteString(o.RenderMarkdown())
		} else {
			b.WriteString(o.Render())
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "total runtime: %s\n", time.Since(start).Round(time.Millisecond))

	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(b.String()), 0o644); err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "wrote %s\n", *outPath)
		return err
	}
	_, err = io.WriteString(stdout, b.String())
	return err
}
