// Package measure is the experiment harness: it runs distributed workloads
// on the simulated consolidated cluster under controlled interference
// (bubbles at chosen pressures on chosen nodes, real co-runner
// applications, groups, or whole placements) and reports raw and
// normalized execution times. It is the stand-in for the paper's testbed
// runs: every profiling, validation, and placement experiment ultimately
// calls into this package.
//
// Every measurement takes one path: plan → body → publish. The plan step
// (validation, failure hook, run counter, content-cache lookup) runs on
// the caller's goroutine in submission order; the body runs the
// measurement's host layout and is a pure function of the environment and
// the layout; the publish step records the result in the content and solo
// caches. A Batch fans the bodies of many plans out over
// a worker pool; the serial methods (RunWithBubbles, Solo,
// NormalizedWithBubbles) are one-submission plans through the same three
// steps, and RunPlacement is a batch of one.
package measure

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/app"
	"repro/internal/bubble"
	"repro/internal/cluster"
	"repro/internal/contention"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// backgroundFunc injects an uncontrolled co-located tenant on a host (the
// EC2 environment of Section 6). It is called once per host per
// measurement repetition; ok false means a quiet host. One tenant stands for
// everything else on the physical host: only its pressure matters, so a
// host never needs more, and returning it by value costs nothing. The
// stream r identifies the *measurement repetition* (not the host): derive
// per-host randomness via r.StreamN("host", host), and use direct draws
// from r.Stream(...) for conditions shared by all hosts during the
// measurement (e.g. how busy the region is right now).
type backgroundFunc func(host int, r *sim.RNG) (tenant contention.Occupant, ok bool)

// Env is a measurement environment: a cluster, a seed, and measurement
// policy. Construct with NewEnv; the zero value is not usable.
//
// Concurrency contract: all exported methods are safe for concurrent use —
// the solo cache, the shared contention-solve memo and the jitter tables
// are mutex-guarded, and Telemetry/Tracer/FailureHook/HostDegrade are only
// ever handed thread-safe implementations by this repository. A
// measurement's value does not depend on what else was measured or in
// which order, background draws included (see backgroundStream), so
// concurrent callers see the values a serial loop would; only the
// FailureHook's draws and the counters follow call order. Configuration
// fields must not be mutated once measurements have started.
type Env struct {
	Cluster   cluster.Cluster
	Seed      int64
	Reps      int // repetitions averaged per measurement
	UnitCores int // cores per application unit on one host
	// Background, when non-nil, adds unmeasured interference per host.
	Background backgroundFunc
	// Telemetry, when non-nil, counts measurements and every application
	// run's events (app.Params.Telemetry), and publishes per-app
	// predicted-vs-actual gauges from RunPlacement. Tracer, when
	// non-nil, records one span per measurement. Both may be nil.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
	// FailureHook, when non-nil, is consulted at the start of every
	// measurement; a non-nil error aborts it. The fault layer injects
	// transient profiling-run failures through it — callers retry.
	FailureHook func(op string) error
	// HostDegrade, when non-nil, returns a multiplicative slowdown
	// factor (>= 1) for a host — the fault layer's "slow node". Like
	// Background, it affects every measurement touching the host, solo
	// baselines included.
	HostDegrade func(host int) float64
	// Workers bounds the worker pool a Batch fans out over; <= 0 means
	// GOMAXPROCS. Workers == 1 executes batch jobs serially on the
	// calling goroutine.
	Workers int
	// Cache, when non-nil, memoizes whole measurements content-addressed
	// by (environment fingerprint, measurement kind, workload, pressure
	// vector / co-runner set, nodes) — see docs/PERFORMANCE.md for the
	// key scheme. It may be shared by several environments. Caching is
	// disabled while HostDegrade is set: fault-injected degradation makes
	// measurements time-varying.
	Cache *Cache

	mu        sync.Mutex
	soloCache map[soloKey]float64

	fpOnce sync.Once
	fp     uint64

	// interned holds each workload definition a measurement has named
	// (guarded by mu); see intern.
	interned map[workloads.Workload]*workloadRef

	// solveCache memoizes the slowdowns of background-free hosts, keyed by
	// the ordered occupants' bit patterns (see hostKey). The equilibrium
	// is a pure function of (HostSpec, occupants), so a hit returns bitwise
	// the value a fresh solve would; within one background-free measurement
	// every repetition re-solves identical hosts, and across a profiling
	// sweep the same few (workload, bubble pressure) hosts recur in every
	// setting, which this collapses.
	// A key being solved holds a pending slot, and a worker that asks for
	// it waits on solveDone instead of solving it again. solveMisses
	// counts the solves the memo ran.
	solveMu     sync.Mutex
	solveDone   sync.Cond
	solveCache  map[hostKey]solveSlot
	solveMisses int

	// jitterMu guards the interned references' jitter tables and counts
	// them; see factors.
	jitterMu sync.Mutex
	tables   int
}

// solveCacheCap bounds the per-env solve memo, so a caller that draws
// occupant profiles from a continuum cannot grow the map without bound.
// (Hosts with background tenants never reach the memo.)
const solveCacheCap = 4096

// internCap bounds Env.interned the same way.
const internCap = 256

// jitterCap bounds the Env's jitter tables the same way.
const jitterCap = 1024

// soloKey identifies a solo baseline: the digest of the workload's
// definition (as in the content-cache keys) and its width, so two
// definitions that share a name keep apart.
type soloKey struct {
	w     digest
	nodes int
}

// Metric names recorded by an instrumented Env. The actual-normalized
// gauge carries an app label.
const (
	metricMeasureRuns      = "measure_runs_total"
	MetricPlacementRuns    = "measure_placement_runs_total"
	metricActualNormalized = "app_actual_normalized"
	// Content-cache and batch-engine metrics.
	metricCacheHits    = "measure_cache_hits_total"
	metricCacheMisses  = "measure_cache_misses_total"
	metricBatchRuns    = "measure_batch_runs_total"
	MetricBatchJobs    = "measure_batch_jobs_total"
	MetricBatchWorkers = "measure_batch_workers"
)

// count bumps a counter if the environment is instrumented.
func (e *Env) count(name string) {
	if e.Telemetry != nil {
		e.Telemetry.Counter(name).Inc()
	}
}

// backgroundStream re-targets dst at the stream the background function is
// handed for every host in one repetition of a measurement whose host
// layout has the given id (job.layoutID),
// Stream("background").StreamN("layout", id).StreamN("rep", rep), and
// returns it; it returns nil on a background-free environment. It is
// per-(layout, repetition), not per host, so that implementations can
// model conditions shared across hosts. Two measurements that lay out
// different hosts draw different neighbours — the EC2 relocation/churn
// effect (Section 6) — while the same layout draws the same ones, whatever
// ran before it. A measurement re-targets one stream for all its
// repetitions.
func (e *Env) backgroundStream(dst *sim.RNG, rep int, id uint64) *sim.RNG {
	if e.Background == nil {
		return nil
	}
	e.rng().Stream("background").StreamN("layout", int(id)).StreamNInto(dst, "rep", rep)
	return dst
}

// NewEnv returns an environment over the given cluster with the paper's
// unit sizing (4 dual-vCPU VMs pinned to cluster.UnitCores cores) and
// 3-repetition averaging.
func NewEnv(c cluster.Cluster, seed int64) (*Env, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// Under the paper's no-overcommit rule a host must hold at least one
	// whole unit before the unit can serve as the sizing granule.
	if cluster.UnitCores > c.HostSpec.Cores {
		return nil, fmt.Errorf("measure: a %d-core unit does not fit a %d-core host", cluster.UnitCores, c.HostSpec.Cores)
	}
	e := &Env{
		Cluster:    c,
		Seed:       seed,
		Reps:       3,
		UnitCores:  cluster.UnitCores,
		soloCache:  map[soloKey]float64{},
		interned:   map[workloads.Workload]*workloadRef{},
		solveCache: map[hostKey]solveSlot{},
	}
	e.solveDone.L = &e.solveMu
	return e, nil
}

// workerCount resolves the effective batch worker-pool size.
func (e *Env) workerCount() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// fingerprint identifies everything a measurement's outcome depends on
// besides its host layout; it leads every content-cache key so one Cache
// can safely serve several environments. Background interference is
// fingerprinted by presence only: its draws are a function of the env and
// the layout. It is the first word of the SHA-256 of the rendering,
// computed lazily so NewEnv callers can finish configuring
// Reps/UnitCores/Background first.
func (e *Env) fingerprint() uint64 {
	e.fpOnce.Do(func() {
		sum := sha256.Sum256(fmt.Appendf(nil, "v1|seed=%d|reps=%d|unit=%d|cluster=%+v|bg=%t",
			e.Seed, e.Reps, e.UnitCores, e.Cluster, e.Background != nil))
		e.fp = binary.LittleEndian.Uint64(sum[:])
	})
	return e.fp
}

// cacheEnabled reports whether content-addressed measurement caching is in
// effect.
func (e *Env) cacheEnabled() bool { return e.Cache != nil && e.HostDegrade == nil }

// digest is the SHA-256 of fmt's %+v of a whole workload definition, so
// workloads that differ in any parameter never share an entry.
type digest [sha256.Size]byte

// workloadRef is an Env's interned copy of one workload definition: what a
// planned measurement points at instead of carrying the definition, and
// the digest the solo keys and layout ids embed for it.
type workloadRef struct {
	w   workloads.Workload
	key digest
	// jitter holds the shared jitter table of each repetition's run
	// stream, created on first use; nil on a reference past internCap.
	jitter []*app.Factors
}

// intern returns the Env's reference for w. Rendering some forty fields
// through reflection costs more than the rest of a key together and a
// sweep plans thousands of jobs over the same few workloads, so each
// distinct definition is rendered once per Env — keyed by value, so two
// definitions that share a name stay apart. Past internCap definitions a
// reference is built per call.
func (e *Env) intern(w workloads.Workload) *workloadRef {
	e.mu.Lock()
	r, ok := e.interned[w]
	e.mu.Unlock()
	if ok {
		return r
	}
	r = &workloadRef{w: w, key: sha256.Sum256(fmt.Appendf(nil, "%+v", w))}
	e.mu.Lock()
	if prev, ok := e.interned[w]; ok {
		r = prev
	} else if len(e.interned) < internCap {
		r.jitter = make([]*app.Factors, e.Reps)
		e.interned[w] = r
	}
	e.mu.Unlock()
	return r
}

// internAll interns every workload of a group.
func (e *Env) internAll(apps []workloads.Workload) []*workloadRef {
	refs := make([]*workloadRef, len(apps))
	for i, a := range apps {
		refs[i] = e.intern(a)
	}
	return refs
}

func (e *Env) net() netsim.Network {
	return netsim.Network{LatencyUs: e.Cluster.NetLatencyUs, BWGbps: e.Cluster.NetBWGbps}
}

func (e *Env) rng() *sim.RNG { return sim.NewRNG(e.Seed) }

// solveHost fills dst with the slowdowns of the first len(dst) occupants
// when the host additionally carries whatever background interference the
// repetition's stream bg (nil on a background-free environment) draws for
// it. Background-free hosts go through the shared memo. occ's spare
// capacity may be overwritten.
func (e *Env) solveHost(dst []float64, occ []contention.Occupant, host int, bg *sim.RNG) error {
	if bg != nil {
		// Every host is handed the repetition's stream from its start:
		// what a background function draws from it directly is shared by
		// all hosts of the repetition.
		bg.Reset(bg.Seed())
		if tenant, ok := e.Background(host, bg); ok {
			return contention.Slowdowns(e.Cluster.HostSpec, append(occ, tenant), dst)
		}
	}
	return e.solveShared(dst, occ)
}

// solveSlot is one solve memo entry: the slowdowns, or pending while the
// worker that claimed the key solves it.
type solveSlot struct {
	sl      [maxKeyedOccupants]float64
	pending bool
}

// maxKeyedOccupants is the longest occupant list the solve memo keys; the
// paper's hosts hold two units. Longer lists (a wide group, a placement
// with many slots per host) are solved directly.
const maxKeyedOccupants = 4

// occupantKey is the bit pattern of everything an occupant contributes to
// a host's equilibrium: its eight profile parameters, its core count and
// its blocked-I/O flag. Bit patterns, not float values, so that -0 and +0
// stay apart and a NaN equals itself. Names are excluded: the equilibrium
// depends only on profiles and core counts.
type occupantKey [10]uint64

// hostKey identifies an ordered occupant list of at most maxKeyedOccupants
// entries by value.
type hostKey struct {
	n   int
	occ [maxKeyedOccupants]occupantKey
}

// hostKeyOf returns the memo key of occ; ok is false for lists too long to
// key.
func hostKeyOf(occ []contention.Occupant) (key hostKey, ok bool) {
	if len(occ) > maxKeyedOccupants {
		return key, false
	}
	key.n = len(occ)
	for i := range occ {
		p, b := &occ[i].Prof, math.Float64bits
		io := uint64(0)
		if p.BlockedIO {
			io = 1
		}
		key.occ[i] = occupantKey{
			b(p.CPICore), b(p.APKI), b(p.WSSMB), b(p.MRMin), b(p.MRMax), b(p.Gamma), b(p.MLP), b(p.CPUFluct),
			uint64(occ[i].Cores), io,
		}
	}
	return key, true
}

// solveShared is a memoized contention.Slowdowns over the env's host spec,
// filling dst with the slowdowns of the first len(dst) occupants. The
// first worker to ask for a key claims it and solves it; a worker that
// asks while it is pending waits for that solve, so each key is solved
// once however many workers want it. A failed solve stores nothing and
// releases the key, and its waiters solve it themselves.
func (e *Env) solveShared(dst []float64, occ []contention.Occupant) error {
	key, ok := hostKeyOf(occ)
	if !ok || len(dst) > len(occ) {
		return contention.Slowdowns(e.Cluster.HostSpec, occ, dst)
	}
	e.solveMu.Lock()
	slot, ok := e.solveCache[key]
	for ok && slot.pending {
		e.solveDone.Wait()
		slot, ok = e.solveCache[key]
	}
	if ok {
		e.solveMu.Unlock()
		copy(dst, slot.sl[:])
		return nil
	}
	claimed := len(e.solveCache) < solveCacheCap
	if claimed {
		e.solveCache[key] = solveSlot{pending: true}
	}
	e.solveMisses++
	e.solveMu.Unlock()

	err := contention.Slowdowns(e.Cluster.HostSpec, occ, slot.sl[:len(occ)])
	if claimed {
		e.solveMu.Lock()
		if err == nil {
			e.solveCache[key] = slot
		} else {
			delete(e.solveCache, key)
		}
		e.solveDone.Broadcast()
		e.solveMu.Unlock()
	}
	if err != nil {
		return err
	}
	copy(dst, slot.sl[:])
	return nil
}

// degrade returns the host's fault-injected slowdown factor (1 when
// healthy or unhooked).
func (e *Env) degrade(host int) float64 {
	if e.HostDegrade == nil {
		return 1
	}
	if f := e.HostDegrade(host); f > 1 {
		return f
	}
	return 1
}

// streams is one measurement's random streams: run is re-targeted for
// every application run and bg for every repetition, so a measurement
// derives all of them into the one pair instead of allocating a stream per
// run (sim.RNG.StreamNInto).
type streams struct{ run, bg sim.RNG }

// factors returns the shared jitter table of w's run stream at rep. Every
// measurement runs repetition rep of w on the same stream, whatever the
// pressures or co-runners, so each factor is drawn once per Env and
// read by every run after. Tables hang off the interned definition, not
// its name: two definitions that share a name share their run streams but
// not necessarily their sigmas. It returns nil — the run fills a private
// table — for a definition past internCap or once jitterCap tables exist.
func (e *Env) factors(w *workloadRef, rep int) *app.Factors {
	if w.jitter == nil {
		return nil
	}
	e.jitterMu.Lock()
	defer e.jitterMu.Unlock()
	f := w.jitter[rep]
	if f == nil && e.tables < jitterCap {
		f = new(app.Factors)
		w.jitter[rep] = f
		e.tables++
	}
	return f
}

// runOnce executes the workload once with the given per-node slowdowns on
// the stream Stream("run").Stream(w.Name).StreamN("rep", rep), re-targeting
// st.run at it, and reads the stream's jitter from its shared table.
func (e *Env) runOnce(w *workloadRef, sd []float64, rep int, st *streams) (float64, error) {
	e.rng().Stream("run").Stream(w.w.Name).StreamNInto(&st.run, "rep", rep)
	return w.w.App.Run(app.Params{
		Slowdown:  sd,
		Net:       e.net(),
		RNG:       &st.run,
		Factors:   e.factors(w, rep),
		Telemetry: e.Telemetry,
	})
}

// job is one measurement: its host layout, its plan-time state and its
// result. Host h (0 <= h < nodes) holds, in slot order, the measured
// units — unit h of every application, or for a placement the units its
// slot row names — then at most one unmeasured extra occupant: a bubble at
// pressures[h], or a unit of co on the hosts in coSet. A serial
// measurement keeps its job on the stack, and a job names its workloads by
// the Env's interned references, so planning one costs the same few words
// whatever it measures.
type job struct {
	op string // the failure hook's and the span's operation kind
	// w is the one measured application of a bubble or co-runner
	// measurement, which runs w's base profile on every node. A co-run
	// measures group instead, node i of each on GenProfile(i).
	w         *workloadRef
	group     []*workloadRef
	nodes     int
	pressures []float64
	co        *workloadRef
	coSet     map[int]bool
	// place is a placement's slot layout; without one, app a's units
	// occupy [a*nodes, (a+1)*nodes) of the slowdown vector. A pointer, so
	// the jobs a batch allocates stay in a smaller size class.
	place *placeLayout

	idx     int      // submission position in a batch
	id      uint64   // layoutID, when background draws or the cache need it
	key     cacheKey // content-cache key; zero when not cached
	aliasOf *job     // earlier in-batch job with the same content key
	solo    bool     // the job is the solo baseline of (w, nodes)
	done    bool     // resolved at plan time (cache hit or alias)

	vals []float64 // each measured application's mean time
	err  error
}

// placeLayout is a placement's host layout: slots holds each slot's unit
// (host h's slot s at h*HostSlots+s; -1 when empty) as an index into the
// slowdown vector, where app a's units occupy [starts[a], starts[a+1]).
type placeLayout struct{ slots, starts []int }

// subject is the measured application's name for a one-application
// measurement, "" for a co-run.
func (j *job) subject() string {
	if j.group != nil {
		return ""
	}
	return j.w.w.Name
}

// unitsOf returns the range app a's units occupy in the slowdown vector.
func (j *job) unitsOf(a int) (lo, hi int) {
	if j.place == nil {
		return a * j.nodes, (a + 1) * j.nodes
	}
	return j.place.starts[a], j.place.starts[a+1]
}

// napps returns the number of measured applications.
func (j *job) napps() int {
	if j.group != nil {
		return len(j.group)
	}
	return 1
}

// app returns measured application a.
func (j *job) app(a int) *workloadRef {
	if j.group != nil {
		return j.group[a]
	}
	return j.w
}

// width returns the measured slots per host.
func (j *job) width() int {
	if j.place != nil {
		return len(j.place.slots) / j.nodes
	}
	return j.napps()
}

// slot returns what host h's slot s holds: application a's unit u, as an
// index into the slowdown vector; ok is false for an empty slot.
func (j *job) slot(h, s, width int) (a, u int, ok bool) {
	if j.place == nil {
		return s, s*j.nodes + h, true // unit h of application s
	}
	if u = j.place.slots[h*width+s]; u < 0 {
		return 0, 0, false
	}
	for a = 0; u >= j.place.starts[a+1]; a++ {
	}
	return a, u, true
}

// baseUnit stands in layoutID for the unit index of an application run on
// its base profile (a bubble or co-runner measurement) rather than on a
// unit's generation profile.
const baseUnit = ^uint64(0)

// mix64 is SplitMix64's finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// layoutID identifies what the job runs, host by host: it seeds the job's
// background draws and keys its content-cache entry. It folds in, for every occupied host in order: the
// host's index; each measured unit in slot order, as the first word of
// its application's interned digest and its unit index (baseUnit for a
// base-profile run); and the extra, as a bubble's pressure bits or the
// co-runner's digest word. Two jobs that lay out the same hosts get the
// same id, whatever entry point planned them: a placement holding one
// unit of each of two applications per host is their group co-run.
func (j *job) layoutID() uint64 {
	width := j.width()
	id := uint64(0)
	fold := func(v uint64) { id = mix64(id ^ v) }
	for h := 0; h < j.nodes; h++ {
		occupied := false
		for s := 0; s < width; s++ {
			a, u, ok := j.slot(h, s, width)
			if !ok {
				continue
			}
			if !occupied {
				fold(uint64(h))
				occupied = true
			}
			unit := baseUnit
			if j.group != nil {
				lo, _ := j.unitsOf(a)
				unit = uint64(u - lo)
			}
			fold(binary.LittleEndian.Uint64(j.app(a).key[:]))
			fold(unit)
		}
		switch {
		case j.pressures != nil && j.pressures[h] > 0:
			fold(math.Float64bits(j.pressures[h]))
		case j.co != nil && j.coSet[h]:
			fold(binary.LittleEndian.Uint64(j.co.key[:]))
		}
	}
	return id
}

// extra returns host h's unmeasured occupant, if it has one.
func (j *job) extra(h int) (occ contention.Occupant, ok bool) {
	switch {
	case j.pressures != nil && j.pressures[h] > 0:
		return contention.Occupant{Name: "bubble", Prof: bubble.Profile(j.pressures[h])}, true
	case j.co != nil && j.coSet[h]:
		return contention.Occupant{Name: j.co.w.Name, Prof: j.co.w.GenProfile(1)}, true
	}
	return occ, false
}

// result returns a job's measurement, following an in-batch alias.
func (j *job) result() ([]float64, error) {
	if j.aliasOf != nil {
		j = j.aliasOf
	}
	return j.vals, j.err
}

// first returns a one-application measurement's value.
func first(v []float64, err error) (float64, error) {
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

// checkBubbles validates a bubble-measurement request.
func (e *Env) checkBubbles(pressures []float64) error {
	nodes := len(pressures)
	if nodes == 0 {
		return errors.New("measure: empty pressure vector")
	}
	if nodes > e.Cluster.NumHosts {
		return fmt.Errorf("measure: %d nodes on a %d-host cluster", nodes, e.Cluster.NumHosts)
	}
	return nil
}

// checkCoRunner validates a co-runner request and canonicalizes the node
// list into a set.
func (e *Env) checkCoRunner(nodes int, coNodes []int) (map[int]bool, error) {
	if nodes <= 0 || nodes > e.Cluster.NumHosts {
		return nil, fmt.Errorf("measure: bad node count %d", nodes)
	}
	coSet := map[int]bool{}
	for _, c := range coNodes {
		if c < 0 || c >= nodes {
			return nil, fmt.Errorf("measure: co-runner node %d out of range", c)
		}
		coSet[c] = true
	}
	return coSet, nil
}

// checkGroup validates a co-run of n applications.
func (e *Env) checkGroup(n, nodes int) error {
	if n == 0 {
		return errors.New("measure: empty application group")
	}
	if nodes <= 0 || nodes > e.Cluster.NumHosts {
		return fmt.Errorf("measure: bad node count %d", nodes)
	}
	if n*e.UnitCores > e.Cluster.HostSpec.Cores {
		return fmt.Errorf("measure: %d units of %d cores exceed host cores", n, e.UnitCores)
	}
	return nil
}

// planBubbles plans w across len(pressures) nodes with a bubble at
// pressures[i] on node i (0 disables that node's bubble).
func (e *Env) planBubbles(j *job, w *workloadRef, pressures []float64) error {
	if err := e.checkBubbles(pressures); err != nil {
		return err
	}
	j.op, j.w, j.nodes, j.pressures = "bubbles", w, len(pressures), pressures
	return e.plan(j)
}

// planCoRunner plans w across nodes with a unit of co — its
// slave-generation profile; its master, if any, lives elsewhere — on each
// node listed in coNodes.
func (e *Env) planCoRunner(j *job, w, co *workloadRef, nodes int, coNodes []int) error {
	coSet, err := e.checkCoRunner(nodes, coNodes)
	if err != nil {
		return err
	}
	j.op, j.w, j.co, j.nodes, j.coSet = "co-runner", w, co, nodes, coSet
	return e.plan(j)
}

// planGroup plans a co-run of apps across nodes, each node holding one
// unit of every application. Groups larger than two exercise the
// multi-way co-location extension (Section 4.4); the host must have enough
// cores for len(apps) units.
func (e *Env) planGroup(j *job, apps []*workloadRef, nodes int) error {
	if err := e.checkGroup(len(apps), nodes); err != nil {
		return err
	}
	j.op, j.group, j.nodes = "group", apps, nodes
	return e.plan(j)
}

// plan is every measurement's prefix once its request is validated and
// laid out, run on the caller's goroutine in submission order: the failure
// hook, the run counter, the layout id when background draws or the cache
// need it, and the content-cache lookup, which resolves j on a hit. A
// placement is not cached: it reports its applications in name order, a
// group in submission order, so the two can share a layout but not a
// result.
func (e *Env) plan(j *job) error {
	if err := e.failure(j.op, j.subject()); err != nil {
		return err
	}
	if j.place != nil {
		e.count(MetricPlacementRuns)
	} else {
		e.count(metricMeasureRuns)
	}
	cached := e.cacheEnabled() && j.place == nil
	if e.Background != nil || cached {
		j.id = j.layoutID()
	}
	if !cached {
		return nil
	}
	j.key = cacheKey{e.fingerprint(), j.id}
	if v, ok := e.Cache.get(j.key); ok {
		j.vals, j.done = v, true
		e.count(metricCacheHits)
	} else {
		e.count(metricCacheMisses)
	}
	return nil
}

// failure consults the fault layer's measurement failure hook about the
// operation kind/name ("bubbles/M.milc"), which is only spelled out when a
// hook is attached.
func (e *Env) failure(kind, name string) error {
	if e.FailureHook == nil {
		return nil
	}
	if name != "" {
		kind += "/" + name
	}
	return e.FailureHook(kind)
}

// exec runs a planned job's body under one span, leaving each measured
// application's mean time in j.vals.
func (e *Env) exec(j *job) {
	var span *telemetry.Span
	if e.Tracer != nil {
		name := "measure." + j.op
		if s := j.subject(); s != "" {
			name += "/" + s
		}
		span = e.Tracer.StartSpan(name)
	}
	j.vals, j.err = e.body(j)
	if j.err == nil && j.group == nil {
		span.SetSimSeconds(j.vals[0])
	}
	span.End()
}

// body runs a job's host layout and returns the measured applications'
// mean times. Per repetition it solves every occupied host once — the
// measured units, the extra and whatever background tenant the repetition
// draws — scales the slowdowns by the host's degradation, and runs every
// application on its units' slowdowns. It is a pure function of the
// environment's configuration and the layout, so it is safe on a batch
// worker. (Solving all occupants and
// reading the measured ones gives the bits a solve of the measured prefix
// would: each slowdown is computed alone from the shared equilibrium.)
func (e *Env) body(j *job) ([]float64, error) {
	napps, width := j.napps(), j.width()
	_, units := j.unitsOf(napps - 1)
	sums := make([]float64, napps)
	sd := make([]float64, units)
	// A host's occupants — the measured units, the extra and a background
	// tenant — live on the stack unless a wide group or slot row outgrows it.
	var (
		occBuf [maxKeyedOccupants + 1]contention.Occupant
		slBuf  [maxKeyedOccupants + 1]float64
		atBuf  [maxKeyedOccupants]int
	)
	occ, sl, at := occBuf[:0], slBuf[:], atBuf[:0]
	if width+2 > len(occBuf) {
		occ, sl, at = make([]contention.Occupant, 0, width+2), make([]float64, width+1), make([]int, 0, width)
	}
	st := new(streams)
	for rep := 0; rep < e.Reps; rep++ {
		bg := e.backgroundStream(&st.bg, rep, j.id)
		for h := 0; h < j.nodes; h++ {
			occ, at = occ[:0], at[:0]
			for s := 0; s < width; s++ {
				a, u, ok := j.slot(h, s, width)
				if !ok {
					continue
				}
				w := &j.app(a).w
				prof := w.Prof
				if j.group != nil {
					lo, _ := j.unitsOf(a)
					prof = w.GenProfile(u - lo)
				}
				occ = append(occ, contention.Occupant{Name: w.Name, Prof: prof, Cores: e.UnitCores})
				at = append(at, u)
			}
			if x, ok := j.extra(h); ok {
				x.Cores = e.UnitCores
				occ = append(occ, x)
			}
			if len(occ) == 0 {
				continue
			}
			if err := e.solveHost(sl[:len(occ)], occ, h, bg); err != nil {
				return nil, fmt.Errorf("measure: host %d: %w", h, err)
			}
			f := e.degrade(h)
			for k, u := range at {
				sd[u] = sl[k] * f
			}
		}
		for a := range sums {
			lo, hi := j.unitsOf(a)
			t, err := e.runOnce(j.app(a), sd[lo:hi], rep, st)
			if err != nil {
				return nil, err
			}
			sums[a] += t
		}
	}
	for a := range sums {
		sums[a] /= float64(e.Reps)
	}
	return sums, nil
}

// publish records a job's outcome once it is known: a measurement the
// body ran goes into the content cache, and a solo baseline into the solo
// cache however it was resolved — measured, found in the content cache, or
// aliased onto an earlier job. First write wins in both.
func (e *Env) publish(j *job) {
	v, err := j.result()
	if err != nil {
		return
	}
	if !j.done && j.key != (cacheKey{}) {
		e.Cache.put(j.key, v)
	}
	if j.solo {
		key := soloKey{j.w.key, j.nodes}
		e.mu.Lock()
		if _, ok := e.soloCache[key]; !ok {
			e.soloCache[key] = v[0]
		}
		e.mu.Unlock()
	}
}

// measure finishes a one-submission plan: the body, unless the plan
// resolved it, then the publish step.
func (e *Env) measure(j *job) ([]float64, error) {
	if !j.done {
		e.exec(j)
	}
	e.publish(j)
	return j.result()
}

// soloValue returns a known solo baseline.
func (e *Env) soloValue(key soloKey) (float64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.soloCache[key]
	return t, ok
}

// RunWithBubbles runs w across len(pressures) nodes with a bubble at
// pressures[i] co-located on node i (0 disables that node's bubble) and
// returns the mean execution time over the environment's repetitions.
func (e *Env) RunWithBubbles(w workloads.Workload, pressures []float64) (float64, error) {
	var j job
	if err := e.planBubbles(&j, e.intern(w), pressures); err != nil {
		return 0, err
	}
	return first(e.measure(&j))
}

// Solo returns the workload's execution time with no controlled
// interference on the given number of nodes, cached per (workload
// definition, nodes).
func (e *Env) Solo(w workloads.Workload, nodes int) (float64, error) {
	ref := e.intern(w)
	if t, ok := e.soloValue(soloKey{ref.key, nodes}); ok {
		return t, nil
	}
	j := job{solo: true}
	if err := e.planBubbles(&j, ref, make([]float64, nodes)); err != nil {
		return 0, err
	}
	return first(e.measure(&j))
}

// NormalizedWithBubbles returns the execution time under the given bubble
// pressures normalized to the same-width solo run.
func (e *Env) NormalizedWithBubbles(w workloads.Workload, pressures []float64) (float64, error) {
	t, err := e.RunWithBubbles(w, pressures)
	if err != nil {
		return 0, err
	}
	solo, err := e.Solo(w, len(pressures))
	if err != nil {
		return 0, err
	}
	return normalize(t, solo, w.Name)
}

// normalize divides a time by its solo baseline.
func normalize(t, solo float64, name string) (float64, error) {
	if solo <= 0 {
		return 0, fmt.Errorf("measure: non-positive solo time for %s", name)
	}
	return t / solo, nil
}

// HomogeneousPressures builds a pressure vector of `nodes` entries whose
// first `interfering` nodes carry `pressure` (the Fig. 3 configurations).
func HomogeneousPressures(nodes, interfering int, pressure float64) ([]float64, error) {
	if nodes <= 0 || interfering < 0 || interfering > nodes {
		return nil, fmt.Errorf("measure: bad homogeneous config nodes=%d interfering=%d", nodes, interfering)
	}
	out := make([]float64, nodes)
	for i := 0; i < interfering; i++ {
		out[i] = pressure
	}
	return out, nil
}

// PairResult reports a pairwise co-run (Section 4.3's validation setup:
// both applications span all nodes and share every host).
type PairResult struct {
	timeA, timeB             float64
	NormalizedA, normalizedB float64
}

// AppOutcome is the measured result for one application in a placement.
type AppOutcome struct {
	Time       float64 // mean execution time
	Solo       float64 // solo time on the same number of nodes
	Normalized float64 // Time / Solo
	Nodes      int     // hosts the app occupied
}

// RunPlacement simulates every application of a placement concurrently
// sharing the cluster and returns per-application outcomes. reg maps
// application names to workload definitions.
//
// Each *unit* of an application is one logical node of its distributed
// execution: a 4-unit application always runs 4-wide, and two sibling
// units packed onto the same host contend with each other exactly like
// two distinct applications would. The solo baseline is the same
// application with every unit on a dedicated host — the paper's solo run.
// RunPlacement is a batch of one Batch.Placement submission.
func (e *Env) RunPlacement(p *cluster.Placement, reg map[string]workloads.Workload) (map[string]AppOutcome, error) {
	b := e.NewBatch()
	h := b.Placement(p, reg)
	if err := b.Run(); err != nil {
		return nil, err
	}
	return h.Outcomes()
}

// planPlacement plans a placement co-run: unit i of app a, in
// UnitPositions (slot) order, is node i of a's run. It returns the
// placement's apps, in the order j.group holds them.
func (e *Env) planPlacement(j *job, p *cluster.Placement, reg map[string]workloads.Workload) ([]string, error) {
	if p == nil {
		return nil, errors.New("measure: nil placement")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	apps := p.Apps()
	if len(apps) == 0 {
		return nil, errors.New("measure: empty placement")
	}
	for _, a := range apps {
		if _, ok := reg[a]; !ok {
			return nil, fmt.Errorf("measure: placement references unknown workload %q", a)
		}
	}
	l := placeLayout{slots: make([]int, p.NumHosts*p.HostSlots), starts: make([]int, len(apps)+1)}
	j.op, j.group, j.nodes, j.place = "placement", make([]*workloadRef, len(apps)), p.NumHosts, &l
	for k := range l.slots {
		l.slots[k] = -1
	}
	for a, name := range apps {
		j.group[a] = e.intern(reg[name])
		pos := p.UnitPositions(name)
		for i, up := range pos {
			l.slots[up.Host*p.HostSlots+up.Slot] = l.starts[a] + i
		}
		l.starts[a+1] = l.starts[a] + len(pos)
	}
	return apps, e.plan(j)
}

// placementOutcomes combines a placement's mean times with its apps'
// baselines once the batch has run, publishing each app's
// actual-normalized gauge.
func (e *Env) placementOutcomes(jp *job, apps []string, solos []soloRef) (map[string]AppOutcome, error) {
	means, err := jp.result()
	if err != nil {
		return nil, err
	}
	outs := make(map[string]AppOutcome, len(apps))
	for a, name := range apps {
		solo, err := solos[a].value()
		if err != nil {
			return nil, err
		}
		lo, hi := jp.unitsOf(a)
		outs[name] = AppOutcome{Time: means[a], Solo: solo, Normalized: means[a] / solo, Nodes: hi - lo}
		if e.Telemetry != nil {
			e.Telemetry.Gauge(telemetry.Label(metricActualNormalized, "app", name)).Set(means[a] / solo)
		}
	}
	return outs, nil
}
