// Command profiler builds the full interference model of one workload —
// propagation matrix, heterogeneity mapping policy, and bubble score — and
// prints it, together with the profiling cost the chosen algorithm paid
// and the provenance of every matrix cell (measured, interpolated, or
// inferred).
//
// Examples:
//
//	profiler -workload M.milc -alg binary-optimized -samples 60
//	profiler -workload M.milc -metrics - -trace -
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/bubble"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "profiler:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("profiler", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "M.milc", "workload name")
		algName = fs.String("alg", "binary-optimized", "profiling algorithm: binary-optimized, binary-brute, full-brute, random-30%, random-50%")
		samples = fs.Int("samples", 60, "heterogeneous samples for policy selection")
		nodes   = fs.Int("nodes", 8, "nodes the application spans while profiled")
		seed    = fs.Int64("seed", 1, "experiment seed")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "measurement batch workers (1 = serial; results are identical either way)")
		of      obs.Flags
	)
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Validate every input before anything is profiled.
	alg, err := parseAlg(*algName)
	if err != nil {
		return err
	}
	w, err := workloads.ByName(*name)
	if err != nil {
		return err
	}

	o, err := of.Start("profiler", *seed, args, stderr)
	if err != nil {
		return err
	}
	defer o.Close(&err)
	logger := o.Logger
	out := report.NewReporter(stdout)

	env, err := measure.NewEnv(cluster.Default(), *seed)
	if err != nil {
		return err
	}
	env.Telemetry = o.Registry
	env.Tracer = o.Tracer
	env.Workers = *workers
	cache := measure.NewCache()
	env.Cache = cache
	cfg := core.DefaultBuildConfig()
	cfg.Algorithm = alg
	cfg.Samples = *samples
	cfg.Nodes = *nodes
	cfg.Seed = *seed
	cfg.Telemetry = o.Registry
	cfg.Tracer = o.Tracer
	logger.Info("building interference model", "workload", w.Name, "alg", alg.String(), "samples", *samples)
	model, err := core.BuildModel(env, w, cfg)
	if err != nil {
		return err
	}
	logger.Info("model built", "workload", model.Workload,
		"bubble_score", model.BubbleScore, "policy", model.Policy.String())
	logger.Info("measurement cache", "hits", cache.Hits(), "misses", cache.Misses(), "entries", cache.Len())

	out.KV("workload", "%s", model.Workload)
	out.KV("bubble score", "%.2f (paper: %.1f)", model.BubbleScore, w.TargetBubbleScore)
	out.KV("best policy", "%s (avg err %.2f%%, std %.2f)",
		model.Policy, model.Selection.BestStats.AvgPct, model.Selection.BestStats.StdPct)
	out.KV("profiling cost", "%.1f%% of settings (%s)", model.ProfilingCostPct, alg)
	pc := model.Matrix.ProvenanceCounts()
	out.KV("cell provenance", "measured %d, interpolated %d, inferred %d",
		pc["measured"], pc["interpolated"], pc["inferred"])
	out.Blank()

	headers := []string{"pressure \\ nodes"}
	for j := 0; j <= *nodes; j++ {
		headers = append(headers, fmt.Sprint(j))
	}
	tb := report.NewTable("Propagation matrix (normalized execution time)", headers...)
	for i := 0; i < bubble.MaxPressure; i++ {
		row := []string{fmt.Sprint(i + 1)}
		for j := 0; j <= *nodes; j++ {
			row = append(row, report.Norm(model.Matrix.Cell(i, j)))
		}
		tb.MustAddRow(row...)
	}
	out.Table(tb)
	out.Blank()

	pol := report.NewTable("Heterogeneity policy errors over sampled configurations",
		"policy", "avg(%)", "std", "min(%)", "max(%)")
	for _, p := range hetero.AllPolicies() {
		st := model.Selection.Stats[p]
		pol.MustAddRow(p.String(), report.F(st.AvgPct, 2), report.F(st.StdPct, 2),
			report.F(st.MinPct, 2), report.F(st.MaxPct, 2))
	}
	out.Table(pol)
	return out.Flush()
}

func parseAlg(s string) (core.Algorithm, error) {
	for _, a := range []core.Algorithm{
		core.BinaryOptimized, core.BinaryBrute, core.FullBrute, core.Random30, core.Random50,
	} {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q", s)
}
