// Package experiments contains one runner per table and figure of the
// paper's evaluation, regenerating each artifact on the simulated cluster:
//
//	Figure 2          — motivating example (naive vs. real, M.lmps + C.libq)
//	Figure 3          — interference propagation curves, 12 distributed apps
//	Figure 4/Table 2  — heterogeneity policy errors and best policy per app
//	Table 3/Figs 6-7  — profiling algorithm cost and accuracy
//	Table 4           — bubble scores of all 18 workloads
//	Figure 8          — model validation errors, pairwise co-runs
//	Figure 9          — predicted vs. actual with the M.Gems co-runner
//	Figure 10         — QoS-aware placement, 4 mixes
//	Table 5/Figure 11 — throughput placement over 10 mixes
//	Figure 12         — EC2 propagation curves
//	Table 6           — EC2 heterogeneity policies
//	Figure 13         — EC2 validation errors
//
// Runners share a Lab, which caches the measurement environment and the
// per-application models so that later experiments reuse earlier profiling
// (as the paper's methodology does).
package experiments

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ec2"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Config tunes experiment scale. Quick mode shrinks sampling so the whole
// suite stays test-friendly; full mode matches the paper's sample counts.
type Config struct {
	Seed  int64
	Quick bool
	// Telemetry and Tracer, when non-nil, instrument every environment
	// and model build the lab performs (see internal/telemetry). Nil
	// disables instrumentation entirely.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
	// Logger, when non-nil, receives structured progress events (model
	// builds, experiment starts). Nil silences them.
	Logger *slog.Logger
	// Workers bounds the measurement batch worker pool in every
	// environment the lab creates and the fan-out of the placement
	// studies' searches (placement.SearchAll); <= 0 means GOMAXPROCS, 1
	// forces the serial reference path. Results are bit-identical either
	// way.
	Workers int
}

// log returns the configured logger or a no-op one.
func (c Config) log() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return obs.Nop()
}

// DefaultConfig is the full-fidelity configuration.
func DefaultConfig() Config { return Config{Seed: 2016} }

// pick returns quick in quick mode and full otherwise.
func (c Config) pick(quick, full int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Knobs derived from Config. Full mode keeps the paper's 60-sample policy
// search (Section 3.3) and its EC2 sample count (Section 6).
func (c Config) reps() int           { return c.pick(2, 3) }
func (c Config) heteroSamples() int  { return c.pick(15, 60) }
func (c Config) ec2Samples() int     { return c.pick(20, 100) }
func (c Config) placementIters() int { return c.pick(600, 4000) }

func (c Config) pressures() []float64 {
	if c.Quick {
		return []float64{2, 5, 8}
	}
	return []float64{1, 2, 3, 4, 5, 6, 7, 8}
}

// Output is one regenerated artifact.
type Output struct {
	ID     string // e.g. "Table 2"
	Title  string
	Tables []*report.Table
	Notes  []string
}

// Lab holds the shared environment and model caches for a run of the
// experiment suite.
type Lab struct {
	Cfg Config
	Env *measure.Env // private 8-node cluster
	// Cache is the content-addressed measurement cache shared by every
	// environment the lab creates, so overlapping settings across
	// experiment families (Figure 12 / Table 6 / Figure 13, the Table 3
	// algorithm comparison, ...) are measured once.
	Cache *measure.Cache

	mu      sync.Mutex
	built   sync.Cond // on mu; broadcast when a memo build ends
	models  map[string]memoSlot[*core.Model]
	naives  map[string]memoSlot[*core.NaiveModel]
	ec2     *measure.Env
	ec2Mods map[string]memoSlot[*core.Model]
}

// memoSlot is a memo cache's entry for one name: pending while the first
// caller builds it.
type memoSlot[T any] struct {
	v       T
	pending bool
}

// NewLab builds a lab over the paper's private cluster.
func NewLab(cfg Config) (*Lab, error) {
	env, err := measure.NewEnv(cluster.Default(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	cache := measure.NewCache()
	env.Reps = cfg.reps()
	env.Telemetry = cfg.Telemetry
	env.Tracer = cfg.Tracer
	env.Workers = cfg.Workers
	env.Cache = cache
	l := &Lab{
		Cfg:     cfg,
		Env:     env,
		Cache:   cache,
		models:  map[string]memoSlot[*core.Model]{},
		naives:  map[string]memoSlot[*core.NaiveModel]{},
		ec2Mods: map[string]memoSlot[*core.Model]{},
	}
	l.built.L = &l.mu
	return l, nil
}

// buildCfg is the model construction configuration for the private
// cluster.
func (l *Lab) buildCfg() core.BuildConfig {
	cfg := core.DefaultBuildConfig()
	cfg.Samples = l.Cfg.heteroSamples()
	cfg.Seed = l.Cfg.Seed
	cfg.Telemetry = l.Cfg.Telemetry
	cfg.Tracer = l.Cfg.Tracer
	return cfg
}

// memo returns cache[name], building it from the named workload on first
// use. The first caller claims the name and builds it; a caller that asks
// while the build is pending waits for it, so each name is built once
// however many goroutines want it. A failed build stores nothing and
// releases the name, and its waiters build it themselves.
func memo[T any](l *Lab, cache map[string]memoSlot[T], name string, build func(workloads.Workload) (T, error)) (T, error) {
	l.mu.Lock()
	slot, ok := cache[name]
	for ok && slot.pending {
		l.built.Wait()
		slot, ok = cache[name]
	}
	if ok {
		l.mu.Unlock()
		return slot.v, nil
	}
	cache[name] = memoSlot[T]{pending: true}
	l.mu.Unlock()

	w, err := workloads.ByName(name)
	if err == nil {
		slot.v, err = build(w)
	}
	l.mu.Lock()
	if err == nil {
		cache[name] = slot
	} else {
		delete(cache, name)
	}
	l.built.Broadcast()
	l.mu.Unlock()
	if err != nil {
		var zero T
		return zero, err
	}
	return slot.v, nil
}

// Model returns (building and caching on first use) the interference model
// of the named workload on the private cluster.
func (l *Lab) Model(name string) (*core.Model, error) {
	return memo(l, l.models, name, func(w workloads.Workload) (*core.Model, error) {
		// Batch workloads are profiled across 8 nodes like distributed
		// ones: they aggregate proportionally by construction, but their
		// propagation matrix is still well-defined and the placement layer
		// treats every application uniformly.
		cfg := l.buildCfg()
		cfg.Nodes = 8
		l.Cfg.log().Info("building interference model", "workload", name, "env", "private")
		m, err := core.BuildModel(l.Env, w, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: model for %s: %w", name, err)
		}
		return m, nil
	})
}

// naive returns the baseline proportional model for the named workload.
func (l *Lab) naive(name string) (*core.NaiveModel, error) {
	return memo(l, l.naives, name, func(w workloads.Workload) (*core.NaiveModel, error) {
		return core.BuildNaiveModel(l.Env, w, 8)
	})
}

// ec2Env returns (lazily) the EC2 measurement environment.
func (l *Lab) ec2Env() (*measure.Env, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ec2 != nil {
		return l.ec2, nil
	}
	env, err := ec2.NewEnv(l.Cfg.Seed + 6)
	if err != nil {
		return nil, err
	}
	env.Reps = l.Cfg.reps()
	env.Telemetry = l.Cfg.Telemetry
	env.Tracer = l.Cfg.Tracer
	env.Workers = l.Cfg.Workers
	env.Cache = l.Cache
	l.ec2 = env
	return env, nil
}

// ec2Model returns (building and caching on first use) the model of the
// named workload on the EC2 environment (32 nodes).
func (l *Lab) ec2Model(name string) (*core.Model, error) {
	env, err := l.ec2Env()
	if err != nil {
		return nil, err
	}
	return memo(l, l.ec2Mods, name, func(w workloads.Workload) (*core.Model, error) {
		cfg := l.buildCfg()
		cfg.Nodes = ec2.Nodes
		cfg.Samples = l.Cfg.ec2Samples()
		l.Cfg.log().Info("building interference model", "workload", name, "env", "ec2")
		m, err := core.BuildModel(env, w, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: EC2 model for %s: %w", name, err)
		}
		return m, nil
	})
}

// distributedNames returns the 12 distributed workload names in Table 1
// order.
func distributedNames() []string {
	var out []string
	for _, w := range workloads.DistributedAll() {
		out = append(out, w.Name)
	}
	return out
}

// Runner is a named experiment entry point.
type Runner struct {
	ID  string
	Run func(*Lab) (Output, error)
}

// run adapts a runner's measuring half, which returns a typed result, to
// the Runner signature: the result's output method renders it.
func run[R interface{ output() Output }](f func(*Lab) (R, error)) func(*Lab) (Output, error) {
	return func(l *Lab) (Output, error) {
		r, err := f(l)
		if err != nil {
			return Output{}, err
		}
		return r.output(), nil
	}
}

// Runners lists every experiment in paper order.
func Runners() []Runner {
	return []Runner{
		{"figure2", run((*Lab).figure2)},
		{"figure3", run((*Lab).figure3)},
		{"table2", run((*Lab).table2)},
		{"table3", run((*Lab).table3)},
		{"table4", run((*Lab).table4)},
		{"figure8", run((*Lab).figure8)},
		{"figure9", run((*Lab).figure9)},
		{"figure10", run((*Lab).figure10)},
		{"figure11", run((*Lab).figure11)},
		{"figure12", run((*Lab).figure12)},
		{"table6", run((*Lab).table6)},
		{"figure13", run((*Lab).figure13)},
	}
}

// ExtraRunners lists additional experiments that are not paper artifacts
// (design-choice ablations); they are reachable by ID but excluded from
// RunAll.
func ExtraRunners() []Runner {
	return []Runner{
		{"figure1", run((*Lab).figure1)},
		{"ablations", run((*Lab).ablations)},
		{"multiway", run((*Lab).multiway)},
		{"faults", run((*Lab).faults)},
		{"fleet", run((*Lab).fleet)},
	}
}

// RunnerByID returns the runner with the given ID, searching the paper
// artifacts first and the extra runners second.
func RunnerByID(id string) (Runner, error) {
	for _, r := range append(Runners(), ExtraRunners()...) {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, errors.New("experiments: unknown runner " + id)
}

// RunAll runs every experiment on the lab and returns their outputs in
// paper order.
func (l *Lab) RunAll() ([]Output, error) {
	var outs []Output
	for _, r := range Runners() {
		start := time.Now()
		l.Cfg.log().Info("running experiment", "id", r.ID)
		o, err := r.Run(l)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", r.ID, err)
		}
		l.Cfg.log().Info("experiment done", "id", r.ID, "elapsed", time.Since(start).Round(time.Millisecond))
		outs = append(outs, o)
	}
	return outs, nil
}

// placementConfig returns the placement-search configuration for the given
// seed at the lab's iteration count, carrying the lab's telemetry so the
// search counters are recorded when the lab is instrumented.
func (l *Lab) placementConfig(seed int64) placement.Config {
	cfg := placement.DefaultConfig(seed)
	cfg.Iterations = l.Cfg.placementIters()
	cfg.Telemetry = l.Cfg.Telemetry
	cfg.Tracer = l.Cfg.Tracer
	return cfg
}
