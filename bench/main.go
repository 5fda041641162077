// Command bench is the benchmark of record for this repository. It builds
// cmd/interfd, runs four workloads that stress different layers, checks
// every output, and prints every metric BENCHMARK.json names.
//
// Run from the checkout root:
//
//	go run -C bench . -seed 1                 # all workloads: untraced, then traced
//	go run -C bench . -only fleet_search      # one workload
//	go run -C bench . -quick                  # smoke sizes, seconds in total
//	go run -C bench . -aa                     # two sets of five runs; fails if they disagree
//	go run -C bench . --workload place_paper --seed 3 --seconds 15 --trace 0
//
// The last form is the driver's: one run of one workload, whose last line
// of standard output is the result as one JSON object. README.md in this
// directory defines the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	only     string
	quick    bool
	aa       bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload once and print the result as one JSON line (driver mode)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: every input derives from it")
	flag.Float64Var(&o.seconds, "seconds", 0, "timed window per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "driver mode: 0 = end-to-end metrics, 1 = per-layer metrics from the traced ladder")
	flag.StringVar(&o.only, "only", "", "with the suite or -aa: run only this workload")
	flag.BoolVar(&o.quick, "quick", false, "smoke sizes: small fleet, quick experiments, short windows; figures are not comparable")
	flag.BoolVar(&o.aa, "aa", false, "run two full sets back to back and fail if any end-to-end metric disagrees by more than its bound")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// warmUp is the discarded lead-in of every timed window.
const warmUp = 3 * time.Second

func run(o options) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	seconds := o.seconds
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
		if o.quick {
			seconds = 1
		}
	}
	env := runEnv{
		root: root, scratch: filepath.Join(root, "bench", "out"),
		seed: o.seed, quick: o.quick,
		window: time.Duration(seconds * float64(time.Second)),
		warm:   warmUp,
		// Closed loop: one caller per core up to four, each waiting for
		// its answer before it sends the next request.
		clients: min(runtime.NumCPU(), 4),
		daemons: &daemons{},
	}
	// An interrupted run stops its daemon before exiting.
	sig := make(chan os.Signal, 1) // signal.Notify needs a buffered channel
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		env.daemons.stopAll()
		os.Exit(130)
	}()
	if o.quick {
		env.warm = time.Second / 4
	}
	if err := os.MkdirAll(env.scratch, 0o755); err != nil {
		return err
	}
	if env.interfd, err = buildInterfd(env); err != nil {
		return err
	}
	names := workloadOrder
	if o.only != "" {
		names = []string{o.only}
	}
	switch {
	case o.workload != "":
		return driverRun(spec, env, o.workload, o.trace == 1)
	case o.aa:
		return aaRun(spec, env, names)
	default:
		return suiteRun(spec, env, names)
	}
}

// findRoot walks up from the working directory to the checkout root, the
// directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

// buildInterfd builds the daemon from the checkout's source.
func buildInterfd(env runEnv) (string, error) {
	bin := filepath.Join(env.scratch, "interfd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/interfd")
	cmd.Dir = env.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cmd/interfd: %v\n%s", err, out)
	}
	return bin, nil
}

// endToEnd is one untraced run of a workload in the contract's terms: the
// end-to-end metrics. The driver's form, the suite and -aa all measure
// through it.
func endToEnd(spec benchSpec, env runEnv, workload string) (runOutput, error) {
	u, err := runUntraced(workload, env)
	if err != nil {
		return runOutput{}, fmt.Errorf("%s: %w", workload, err)
	}
	out := runOutput{
		Correct: u.failed == 0, Attempted: u.attempted, Failed: u.failed,
		samples: u.samples, tailPct: u.tailPct, info: u.info,
	}
	out.Metrics, err = attachUnits(spec.EndToEnd, u.metrics())
	return out, err
}

// perLayer is one traced run of a workload: the per-layer metrics from the
// ladder l, whose spans it writes under the scratch directory.
func perLayer(spec benchSpec, env runEnv, l *ladder, workload string) (runOutput, error) {
	t, err := l.traced(workload)
	if err != nil {
		return runOutput{}, fmt.Errorf("%s traced: %w", workload, err)
	}
	if err := writeTrace(filepath.Join(env.scratch, "trace-"+workload+".json"), t.spans); err != nil {
		return runOutput{}, err
	}
	out := runOutput{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed}
	out.Metrics, err = attachUnits(spec.PerLayer, t.values)
	return out, err
}

// driverRun is one run of one workload, reported as the contract's JSON
// object on the last line of standard output.
func driverRun(spec benchSpec, env runEnv, workload string, traceOn bool) error {
	var out runOutput
	if traceOn {
		l, err := walkLadder(env)
		if err != nil {
			return err
		}
		if out, err = perLayer(spec, env, l, workload); err != nil {
			return err
		}
	} else {
		var err error
		if out, err = endToEnd(spec, env, workload); err != nil {
			return err
		}
		for _, k := range sortedKeys(out.info) {
			fmt.Fprintf(os.Stderr, "bench: %s %s = %s\n", workload, k, out.info[k])
		}
		fmt.Fprintf(os.Stderr, "bench: %s: %d timed operations, tail read at p%g\n", workload, out.samples, out.tailPct)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// suiteRun is the driver's two runs of each workload in one go: untraced
// for the end-to-end metrics, then traced for the per-layer metrics. It
// prints both tables, writes results.json, and fails if any operation
// failed verification.
func suiteRun(spec benchSpec, env runEnv, names []string) error {
	res := suiteResult{
		Seed: env.seed, Seconds: env.window.Seconds(), Quick: env.quick,
		Clients: env.clients, Workloads: map[string]workloadResult{},
	}
	// The untraced runs go first: the ladder's spans and rigs would
	// otherwise sit in the heap beside them, and heap size moves the
	// garbage collector's pace and so the allocation figures.
	untracedRuns := map[string]runOutput{}
	for _, name := range names {
		u, err := endToEnd(spec, env, name)
		if err != nil {
			return err
		}
		untracedRuns[name] = u
	}
	l, err := walkLadder(env)
	if err != nil {
		return fmt.Errorf("traced ladder: %w", err)
	}
	failed := 0
	for _, name := range names {
		u := untracedRuns[name]
		t, err := perLayer(spec, env, l, name)
		if err != nil {
			return err
		}
		wr := workloadResult{
			Attempted: u.Attempted + t.Attempted, Failed: u.Failed + t.Failed,
			Samples: u.samples, TailPct: u.tailPct, Info: u.info,
			EndToEnd: u.Metrics, PerLayer: t.Metrics,
		}
		wr.Correct = wr.Failed == 0
		wr.FailRatio = float64(wr.Failed) / float64(wr.Attempted)
		res.Workloads[name] = wr
		failed += wr.Failed
		printTable(os.Stdout, name+" (end to end, untraced)", spec.EndToEnd, wr.EndToEnd)
		for _, k := range sortedKeys(wr.Info) {
			fmt.Printf("  %s = %s\n", k, wr.Info[k])
		}
		fmt.Printf("  fail_ratio = %d/%d, %d timed operations, tail read at p%g\n\n", wr.Failed, wr.Attempted, wr.Samples, wr.TailPct)
		printTable(os.Stdout, name+" (per layer, traced)", spec.PerLayer, wr.PerLayer)
		fmt.Println()
	}
	path := filepath.Join(env.scratch, "results.json")
	if err := writeJSONFile(path, res); err != nil {
		return err
	}
	fmt.Println("results written to", path)
	if failed > 0 {
		return fmt.Errorf("%d operations failed verification", failed)
	}
	return nil
}
