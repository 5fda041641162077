package fault

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Metric names exported by the injector.
const (
	// MetricInjected counts injected faults, labelled by kind. Crash,
	// degrade, and cell-loss faults count once at activation; each
	// triggered transient profiling failure counts individually.
	MetricInjected = "fault_injected_total"
	// MetricCellsLost counts matrix cells dropped by ApplyCellLoss.
	MetricCellsLost = "fault_cells_lost_total"
	// MetricDownHosts gauges the current number of crashed hosts.
	MetricDownHosts = "fault_down_hosts"
)

// TransientError is the error FailureHook injects into a measurement; it
// marks the failure as retryable.
type TransientError struct{ Op string }

func (e *TransientError) Error() string {
	return fmt.Sprintf("fault: transient profiling failure during %s", e.Op)
}

// Injector applies a Plan and exposes the resulting degraded-cluster
// state. All methods are safe for concurrent use; OnEvent must be set
// before the first activation.
type Injector struct {
	plan Plan
	reg  *telemetry.Registry

	// OnEvent, when non-nil, is called (outside the injector lock) for
	// every activated crash/degrade/cell-loss fault — the daemons bridge
	// it onto the SSE event bus.
	OnEvent func(f Fault)

	mu       sync.Mutex
	applied  []bool
	down     map[int]bool
	degrade  map[int]float64
	lossFrac float64
	failRate float64
	failRNG  *sim.RNG
	counts   map[Kind]uint64
}

// New validates the plan and returns an idle injector: no fault is
// active until Activate fires it. reg may be nil.
func New(plan Plan, reg *telemetry.Registry) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		plan:    plan,
		reg:     reg,
		applied: make([]bool, len(plan.Faults)),
		down:    map[int]bool{},
		degrade: map[int]float64{},
		failRNG: sim.NewRNG(plan.Seed).Stream("profiling-failure"),
		counts:  map[Kind]uint64{},
	}, nil
}

// Plan returns the plan the injector was built from.
func (inj *Injector) Plan() Plan { return inj.plan }

// Activate applies every fault whose Round has been reached. It is
// idempotent per fault and monotonic in round.
func (inj *Injector) Activate(round int) {
	for i, f := range inj.plan.Faults {
		if f.Round > round {
			continue
		}
		inj.applyIdx(i)
	}
}

// applyIdx activates fault i exactly once.
func (inj *Injector) applyIdx(i int) {
	inj.mu.Lock()
	if inj.applied[i] {
		inj.mu.Unlock()
		return
	}
	inj.applied[i] = true
	f := inj.plan.Faults[i]
	switch f.Kind {
	case NodeCrash:
		inj.down[f.Host] = true
	case NodeDegrade:
		// Repeated degrades of one host keep the worst factor.
		if f.Factor > inj.degrade[f.Host] {
			inj.degrade[f.Host] = f.Factor
		}
	case ProfileCellLoss:
		if f.Fraction > inj.lossFrac {
			inj.lossFrac = f.Fraction
		}
	case ProfilingFailure:
		if f.Rate > inj.failRate {
			inj.failRate = f.Rate
		}
	}
	if f.Kind != ProfilingFailure {
		inj.counts[f.Kind]++
	}
	downN := len(inj.down)
	cb := inj.OnEvent
	inj.mu.Unlock()

	if inj.reg != nil {
		if f.Kind != ProfilingFailure {
			inj.reg.Counter(telemetry.Label(MetricInjected, "kind", f.Kind.String())).Inc()
		}
		inj.reg.Gauge(MetricDownHosts).Set(float64(downN))
	}
	if cb != nil {
		cb(f)
	}
}

// DownHosts returns the crashed hosts, sorted.
func (inj *Injector) DownHosts() []int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make([]int, 0, len(inj.down))
	for h := range inj.down {
		out = append(out, h)
	}
	sort.Ints(out)
	return out
}

// IsDown reports whether host h has crashed.
func (inj *Injector) IsDown(h int) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.down[h]
}

// DegradeFactor returns the multiplicative slowdown for a host (1 when
// healthy). Its signature matches measure.Env's HostDegrade hook.
func (inj *Injector) DegradeFactor(host int) float64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if f, ok := inj.degrade[host]; ok && f > 1 {
		return f
	}
	return 1
}

// CellLossFraction returns the active profile-cell-loss fraction.
func (inj *Injector) CellLossFraction() float64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.lossFrac
}

// FailureHook fails a measurement with the active transient-failure
// probability. Its signature matches measure.Env's FailureHook. Draws
// come from a dedicated plan-seeded stream in call order, so a fixed plan
// fails a fixed sequence of measurements. The stream is sequential on
// purpose, unlike a measurement's background draws, which are keyed by
// what it runs: a failure is transient, so a retry of the same
// measurement must be able to succeed, and a failure keyed by content
// would fail it forever.
func (inj *Injector) FailureHook(op string) error {
	inj.mu.Lock()
	rate := inj.failRate
	fail := rate > 0 && inj.failRNG.Float64() < rate
	if fail {
		inj.counts[ProfilingFailure]++
	}
	inj.mu.Unlock()
	if !fail {
		return nil
	}
	if inj.reg != nil {
		inj.reg.Counter(telemetry.Label(MetricInjected, "kind", ProfilingFailure.String())).Inc()
	}
	return &TransientError{Op: op}
}

// ApplyCellLoss returns m with the active loss fraction of its
// measurable cells dropped — a fresh incomplete clone; m itself is never
// mutated (completed matrices stay complete, cell loss only produces
// degraded copies). The dropped set is a pure function of (plan seed,
// name), so re-profiling the same workload loses the same cells. With no
// active cell-loss fault it returns m unchanged.
func (inj *Injector) ApplyCellLoss(m *profile.Matrix, name string) *profile.Matrix {
	inj.mu.Lock()
	frac := inj.lossFrac
	inj.mu.Unlock()
	if m == nil || frac <= 0 {
		return m
	}
	total := m.Pressures * m.Nodes
	k := int(math.Round(frac * float64(total)))
	if k <= 0 {
		return m
	}
	if k > total {
		k = total
	}
	r := sim.NewRNG(inj.plan.Seed).Stream("cell-loss").Stream(name)
	drop := make(map[[2]int]bool, k)
	for _, idx := range r.Perm(total)[:k] {
		drop[[2]int{idx / m.Nodes, idx%m.Nodes + 1}] = true
	}
	c := m.CloneDropping(func(i, j int) bool { return drop[[2]int{i, j}] })
	if inj.reg != nil {
		inj.reg.Counter(MetricCellsLost).Add(uint64(k))
	}
	return c
}

// Counts reports how many faults of each kind have fired (transient
// profiling failures count per triggered failure).
func (inj *Injector) Counts() map[string]uint64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[string]uint64, len(inj.counts))
	for k, n := range inj.counts {
		out[k.String()] = n
	}
	return out
}
