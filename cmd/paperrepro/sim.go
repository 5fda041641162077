package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/measure"
	"repro/internal/report"
	"repro/internal/workloads"
)

// sim runs one distributed workload on the simulated consolidated
// cluster under a chosen interference configuration and prints its raw
// and normalized execution times.
func sim(args []string, stdout, stderr io.Writer) (err error) {
	c := newCommand("paperrepro sim", 1, stderr)
	var (
		name        = c.fs.String("workload", "M.lmps", "workload name (see -list)")
		nodes       = c.fs.Int("nodes", 8, "nodes the application spans")
		interfering = c.fs.Int("interfering", 1, "nodes carrying a bubble (homogeneous mode)")
		pressure    = c.fs.Float64("pressure", 6, "bubble pressure 1-8 (homogeneous mode)")
		pressureCSV = c.fs.String("pressures", "", "comma-separated per-node pressures (heterogeneous mode)")
		useEC2      = c.fs.Bool("ec2", false, "use the simulated EC2 environment")
		faultsPath  = c.fs.String("faults", "", "JSON fault plan to inject (crashes shrink the cluster, degrades slow their host)")
		list        = c.fs.Bool("list", false, "list available workloads and exit")
	)
	if err := c.parse(args); err != nil {
		return err
	}

	out := report.NewReporter(stdout)
	if *list {
		for _, w := range workloads.All() {
			out.KV(w.Name, "%s\tengine=%s", w.Kind, w.App.Engine)
		}
		return out.Flush()
	}

	// Validate every input before anything runs.
	w, err := workloads.ByName(*name)
	if err != nil {
		return err
	}
	var pressures []float64
	if *pressureCSV != "" {
		for _, tok := range strings.Split(*pressureCSV, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				return fmt.Errorf("bad pressure %q: %w", tok, err)
			}
			pressures = append(pressures, v)
		}
	} else if pressures, err = measure.HomogeneousPressures(*nodes, *interfering, *pressure); err != nil {
		return err
	}

	r, err := c.start(args, stderr)
	if err != nil {
		return err
	}
	defer r.Close(&err)
	env, err := r.env(*useEC2)
	if err != nil {
		return err
	}

	// Fault plan: crashes remap the run's logical nodes onto the i-th
	// surviving host, degrades slow their host, and transient profiling
	// failures are retried a few times before giving up. Time-armed
	// faults (at > 0) need the round-driven daemon; a batch run only
	// activates the round-0 plan.
	var inj *fault.Injector
	survivingHosts := env.Cluster.NumHosts
	if *faultsPath != "" {
		plan, err := fault.LoadPlan(*faultsPath)
		if err != nil {
			return err
		}
		if inj, err = fault.New(plan, r.Registry); err != nil {
			return err
		}
		inj.OnEvent = func(f fault.Fault) {
			r.Logger.Warn("fault injected", "kind", f.Kind.String(), "host", f.Host,
				"factor", f.Factor, "rate", f.Rate)
		}
		inj.Activate(0)
		env.FailureHook = inj.FailureHook
		if downs := inj.DownHosts(); len(downs) > 0 {
			surviving := make([]int, 0, env.Cluster.NumHosts)
			for h := 0; h < env.Cluster.NumHosts; h++ {
				if !inj.IsDown(h) {
					surviving = append(surviving, h)
				}
			}
			survivingHosts = len(surviving)
			env.HostDegrade = func(node int) float64 {
				if node < 0 || node >= len(surviving) {
					return 1
				}
				return inj.DegradeFactor(surviving[node])
			}
		} else {
			env.HostDegrade = inj.DegradeFactor
		}
	}

	if len(pressures) > survivingHosts {
		return fmt.Errorf("workload spans %d nodes but only %d hosts survive the fault plan",
			len(pressures), survivingHosts)
	}

	raw, err := runRetrying(inj, r.Logger, func() (float64, error) { return env.RunWithBubbles(w, pressures) })
	if err != nil {
		return err
	}
	solo, err := runRetrying(inj, r.Logger, func() (float64, error) { return env.Solo(w, len(pressures)) })
	if err != nil {
		return err
	}
	out.KV("workload", "%s (%s, engine %s)", w.Name, w.Kind, w.App.Engine)
	out.KV("nodes", "%d", len(pressures))
	out.KV("pressures", "%v", pressures)
	out.KV("solo", "%.3f s", solo)
	out.KV("interfered", "%.3f s", raw)
	out.KV("normalized", "%.4f", raw/solo)
	if inj != nil {
		counts := inj.Counts()
		kinds := make([]string, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			out.KV("fault/"+k, "%d", counts[k])
		}
	}
	return out.Flush()
}

// runRetrying runs one measurement, retrying transient injected
// profiling failures a few times before surfacing the error.
func runRetrying(inj *fault.Injector, logger *slog.Logger, run func() (float64, error)) (float64, error) {
	const attempts = 5
	v, err := run()
	for i := 1; err != nil && inj != nil && i < attempts; i++ {
		var te *fault.TransientError
		if !errors.As(err, &te) {
			break
		}
		logger.Warn("transient profiling failure; retrying", "op", te.Op, "attempt", i)
		v, err = run()
	}
	return v, err
}
