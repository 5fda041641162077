// Package measure is the experiment harness: it runs distributed workloads
// on the simulated consolidated cluster under controlled interference
// (bubbles at chosen pressures on chosen nodes, real co-runner
// applications, or whole placements) and reports raw and normalized
// execution times. It is the stand-in for the paper's testbed runs: every
// profiling, validation, and placement experiment ultimately calls into
// this package.
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
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// BackgroundFunc injects an uncontrolled co-located tenant on a host (the
// EC2 environment of Section 6). It is called once per host per
// measurement repetition; ok false means a quiet host. One tenant stands for
// everything else on the physical host: only its pressure matters, so a
// host never needs more, and returning it by value costs nothing. The
// stream r identifies the *measurement repetition* (not the host): derive
// per-host randomness via r.StreamN("host", host), and use direct draws
// from r.Stream(...) for conditions shared by all hosts during the
// measurement (e.g. how busy the region is right now).
type BackgroundFunc func(host int, r *sim.RNG) (tenant contention.Occupant, ok bool)

// Env is a measurement environment: a cluster, a seed, and measurement
// policy. Construct with NewEnv; the zero value is not usable.
//
// Concurrency contract: all exported methods are safe for concurrent use —
// the solo cache, the nonce counter, and the shared contention-solve memo
// are mutex-guarded, and Telemetry/Tracer/FailureHook/HostDegrade are only
// ever handed thread-safe implementations by this repository. Note however
// that concurrent *callers* racing on nextNonce get nondeterministic nonce
// assignment; deterministic parallelism is what Batch provides (nonces are
// pre-assigned during single-threaded planning, only the nonce-bearing
// bodies fan out). Configuration fields must not be mutated once
// measurements have started.
type Env struct {
	Cluster   cluster.Cluster
	Seed      int64
	Reps      int // repetitions averaged per measurement
	UnitCores int // cores per application unit on one host
	// Background, when non-nil, adds unmeasured interference per host.
	Background BackgroundFunc
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
	// calling goroutine (the proven-identical reference path).
	Workers int
	// Cache, when non-nil, memoizes whole measurements content-addressed
	// by (environment fingerprint, measurement kind, workload, pressure
	// vector / co-runner set, nodes) — see docs/PERFORMANCE.md for the
	// key scheme. It may be shared by several environments and persisted
	// to disk between runs. Caching is disabled while HostDegrade is set:
	// fault-injected degradation makes measurements time-varying.
	Cache *Cache

	mu        sync.Mutex
	soloCache map[soloKey]float64
	nonce     int

	fpOnce sync.Once
	fp     cacheKey

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
	solveMu    sync.Mutex
	solveCache map[hostKey][maxKeyedOccupants]float64
}

// solveCacheCap bounds the per-env solve memo, so a caller that draws
// occupant profiles from a continuum cannot grow the map without bound.
// (Hosts with background tenants never reach the memo.)
const solveCacheCap = 4096

// internCap bounds Env.interned the same way.
const internCap = 256

// soloKey identifies a solo baseline: the workload's name and its width.
type soloKey struct {
	name  string
	nodes int
}

// Metric names recorded by an instrumented Env. The actual-normalized
// gauge carries an app label.
const (
	MetricMeasureRuns      = "measure_runs_total"
	MetricPlacementRuns    = "measure_placement_runs_total"
	MetricActualNormalized = "app_actual_normalized"
	// Content-cache and batch-engine metrics.
	MetricCacheHits    = "measure_cache_hits_total"
	MetricCacheMisses  = "measure_cache_misses_total"
	MetricBatchRuns    = "measure_batch_runs_total"
	MetricBatchJobs    = "measure_batch_jobs_total"
	MetricBatchWorkers = "measure_batch_workers"
)

// count bumps a counter if the environment is instrumented.
func (e *Env) count(name string) {
	if e.Telemetry != nil {
		e.Telemetry.Counter(name).Inc()
	}
}

// nextNonce returns a fresh measurement identifier. Background interference
// draws mix it in, so every measurement sees freshly drawn neighbours —
// the EC2 relocation/churn effect (Section 6). Within one measurement the
// draw is still deterministic.
func (e *Env) nextNonce() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nonce++
	return e.nonce
}

// backgroundStream re-targets dst at the stream the background function is
// handed for every host in one repetition of the measurement identified by
// nonce, Stream("background").StreamN("nonce", nonce).StreamN("rep", rep),
// and returns it; it returns nil on a background-free environment. It is
// per-(measurement, repetition), not per host, so that implementations can
// model conditions shared across hosts. A measurement re-targets one
// stream for all its repetitions.
func (e *Env) backgroundStream(dst *sim.RNG, rep, nonce int) *sim.RNG {
	if e.Background == nil {
		return nil
	}
	e.rng().Stream("background").StreamN("nonce", nonce).StreamNInto(dst, "rep", rep)
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
	return &Env{
		Cluster:    c,
		Seed:       seed,
		Reps:       3,
		UnitCores:  cluster.UnitCores,
		soloCache:  map[soloKey]float64{},
		interned:   map[workloads.Workload]*workloadRef{},
		solveCache: map[hostKey][maxKeyedOccupants]float64{},
	}, nil
}

// workerCount resolves the effective batch worker-pool size.
func (e *Env) workerCount() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// fingerprint identifies everything a measurement's outcome depends on
// besides the request itself; it leads every content-cache key so one
// Cache can safely serve several environments (and survive on disk).
// Background interference is fingerprinted by presence only: entries made
// under background interference are keyed to the first nonce that computed
// them (see docs/PERFORMANCE.md). It is the SHA-256 of the rendering,
// computed lazily so NewEnv callers can finish configuring
// Reps/UnitCores/Background first.
func (e *Env) fingerprint() cacheKey {
	e.fpOnce.Do(func() {
		e.fp = sha256.Sum256(fmt.Appendf(nil, "v1|seed=%d|reps=%d|unit=%d|cluster=%+v|bg=%t",
			e.Seed, e.Reps, e.UnitCores, e.Cluster, e.Background != nil))
	})
	return e.fp
}

// cacheEnabled reports whether content-addressed measurement caching is in
// effect.
func (e *Env) cacheEnabled() bool { return e.Cache != nil && e.HostDegrade == nil }

// cacheGet looks up a measurement by key, maintaining the hit/miss
// counters. The zero key (caching disabled) is a silent miss.
func (e *Env) cacheGet(key cacheKey) ([]float64, bool) {
	if key == (cacheKey{}) {
		return nil, false
	}
	v, ok := e.Cache.get(key)
	if ok {
		e.count(MetricCacheHits)
	} else {
		e.count(MetricCacheMisses)
	}
	return v, ok
}

// cachePut stores a completed measurement under key (no-op when zero).
func (e *Env) cachePut(key cacheKey, v []float64) {
	if key != (cacheKey{}) {
		e.Cache.put(key, v)
	}
}

// workloadRef is an Env's interned copy of one workload definition: what a
// planned measurement points at instead of carrying the definition, and
// the digest the content-cache keys embed for it.
type workloadRef struct {
	w workloads.Workload
	// key is the SHA-256 of fmt's %+v of the whole definition, so
	// workloads that differ in any parameter never share an entry.
	key cacheKey
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
		e.interned[w] = r
	}
	e.mu.Unlock()
	return r
}

// Content-cache key kinds: the first byte of a key's encoding.
const (
	keyBubbles  byte = 'b'
	keyCoRunner byte = 'c'
	keyGroup    byte = 'g'
)

// keyBufLen sizes the stack buffer a key's encoding is built in; a bubble
// measurement across 32 nodes or a group of eight fits.
const keyBufLen = 512

// keyHead starts a key's encoding: the kind, then the env fingerprint.
// The measurement's parameters follow as fixed-width words and digests,
// every variable-length part preceded by its length, so the encoding is
// injective and no two kinds can produce the same bytes.
func (e *Env) keyHead(buf []byte, kind byte) []byte {
	fp := e.fingerprint()
	return append(append(buf, kind), fp[:]...)
}

// appendWord appends v as eight little-endian bytes.
func appendWord(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// bubblesCacheKey is the content address of a RunWithBubbles measurement,
// or the zero key when caching is disabled. Pressures enter as bit
// patterns, so -0 and +0 stay apart and no two vectors can be conflated.
func (e *Env) bubblesCacheKey(w *workloadRef, pressures []float64) cacheKey {
	if !e.cacheEnabled() {
		return cacheKey{}
	}
	var buf [keyBufLen]byte
	b := append(e.keyHead(buf[:0], keyBubbles), w.key[:]...)
	b = appendWord(b, uint64(len(pressures)))
	for _, p := range pressures {
		b = appendWord(b, math.Float64bits(p))
	}
	return sha256.Sum256(b)
}

// coRunnerCacheKey is the content address of a RunWithCoRunner
// measurement; the co-runner node set enters in ascending order. Every
// member of coSet is below nodes (checkCoRunner).
func (e *Env) coRunnerCacheKey(w, co *workloadRef, nodes int, coSet map[int]bool) cacheKey {
	if !e.cacheEnabled() {
		return cacheKey{}
	}
	var buf [keyBufLen]byte
	b := append(e.keyHead(buf[:0], keyCoRunner), w.key[:]...)
	b = append(b, co.key[:]...)
	b = appendWord(b, uint64(nodes))
	b = appendWord(b, uint64(len(coSet)))
	for i := 0; i < nodes; i++ {
		if coSet[i] {
			b = appendWord(b, uint64(i))
		}
	}
	return sha256.Sum256(b)
}

// groupCacheKey is the content address of a RunGroup measurement (the
// per-app mean-time vector; solo baselines are cached separately).
func (e *Env) groupCacheKey(apps []*workloadRef, nodes int) cacheKey {
	if !e.cacheEnabled() {
		return cacheKey{}
	}
	var buf [keyBufLen]byte
	b := appendWord(e.keyHead(buf[:0], keyGroup), uint64(nodes))
	b = appendWord(b, uint64(len(apps)))
	for _, a := range apps {
		b = append(b, a.key[:]...)
	}
	return sha256.Sum256(b)
}

func (e *Env) net() netsim.Network {
	return netsim.Network{LatencyUs: e.Cluster.NetLatencyUs, BWGbps: e.Cluster.NetBWGbps}
}

func (e *Env) rng() *sim.RNG { return sim.NewRNG(e.Seed) }

// slowdownOn solves one host's contention equilibrium and returns the
// slowdown of the occupant at index 0 (the measured application). bg is
// the repetition's background stream (see solveHost).
func (e *Env) slowdownOn(host int, occ []contention.Occupant, bg *sim.RNG) (float64, error) {
	var sl [1]float64
	if err := e.solveHost(sl[:], occ, host, bg); err != nil {
		return 0, fmt.Errorf("measure: host %d: %w", host, err)
	}
	return sl[0] * e.degrade(host), nil
}

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
// filling dst with the slowdowns of the first len(dst) occupants. Racing
// workers may compute the same key concurrently; both produce the
// identical (pure-function) value, so whichever lands in the memo first is
// indistinguishable from the other.
func (e *Env) solveShared(dst []float64, occ []contention.Occupant) error {
	key, ok := hostKeyOf(occ)
	if !ok || len(dst) > len(occ) {
		return contention.Slowdowns(e.Cluster.HostSpec, occ, dst)
	}
	e.solveMu.Lock()
	sl, ok := e.solveCache[key]
	e.solveMu.Unlock()
	if !ok {
		if err := contention.Slowdowns(e.Cluster.HostSpec, occ, sl[:len(occ)]); err != nil {
			return err
		}
		e.solveMu.Lock()
		if len(e.solveCache) < solveCacheCap {
			e.solveCache[key] = sl
		}
		e.solveMu.Unlock()
	}
	copy(dst, sl[:])
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

// streams is one measurement's random streams: run is re-targeted for
// every application run and bg for every repetition, so a measurement
// derives all of them into the one pair instead of allocating a stream per
// run (sim.RNG.StreamNInto).
type streams struct{ run, bg sim.RNG }

// runOnce executes the workload once with the given per-node slowdowns on
// the stream Stream("run").Stream(w.Name).StreamN("rep", rep), re-targeting
// st.run at it.
func (e *Env) runOnce(w *workloads.Workload, sd []float64, rep int, st *streams) (float64, error) {
	e.rng().Stream("run").Stream(w.Name).StreamNInto(&st.run, "rep", rep)
	return w.App.Run(app.Params{
		Slowdown:  sd,
		Net:       e.net(),
		RNG:       &st.run,
		Telemetry: e.Telemetry,
	})
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

// bubblesBody is the measurement itself — everything after validation,
// failure injection, accounting, and nonce assignment. It is a pure
// function of (env configuration, w, pressures, nonce) and therefore safe
// to run on a batch worker.
func (e *Env) bubblesBody(ref *workloadRef, pressures []float64, nonce int) (float64, error) {
	w := &ref.w
	var span *telemetry.Span
	if e.Tracer != nil {
		span = e.Tracer.StartSpan("measure.bubbles/" + w.Name)
	}
	times := make([]float64, 0, e.Reps)
	sd := make([]float64, len(pressures))
	st := new(streams)
	var scratch [maxKeyedOccupants]contention.Occupant
	for rep := 0; rep < e.Reps; rep++ {
		bg := e.backgroundStream(&st.bg, rep, nonce)
		for i, p := range pressures {
			occ := append(scratch[:0], contention.Occupant{Name: w.Name, Prof: w.Prof, Cores: e.UnitCores})
			if p > 0 {
				occ = append(occ, contention.Occupant{Name: "bubble", Prof: bubble.Profile(p), Cores: e.UnitCores})
			}
			s, err := e.slowdownOn(i, occ, bg)
			if err != nil {
				return 0, err
			}
			sd[i] = s
		}
		t, err := e.runOnce(w, sd, rep, st)
		if err != nil {
			return 0, err
		}
		times = append(times, t)
	}
	mean := stats.Mean(times)
	span.SetSimSeconds(mean).End()
	return mean, nil
}

// RunWithBubbles runs w across len(pressures) nodes with a bubble at
// pressures[i] co-located on node i (0 disables that node's bubble) and
// returns the mean execution time over the environment's repetitions.
func (e *Env) RunWithBubbles(w workloads.Workload, pressures []float64) (float64, error) {
	if err := e.checkBubbles(pressures); err != nil {
		return 0, err
	}
	if err := e.failure("bubbles", w.Name); err != nil {
		return 0, err
	}
	e.count(MetricMeasureRuns)
	nonce := e.nextNonce()
	ref := e.intern(w)
	key := e.bubblesCacheKey(ref, pressures)
	if v, ok := e.cacheGet(key); ok {
		return v[0], nil
	}
	mean, err := e.bubblesBody(ref, pressures, nonce)
	if err != nil {
		return 0, err
	}
	e.cachePut(key, []float64{mean})
	return mean, nil
}

// Solo returns the workload's execution time with no controlled
// interference on the given number of nodes, cached per (workload, nodes).
func (e *Env) Solo(w workloads.Workload, nodes int) (float64, error) {
	key := soloKey{w.Name, nodes}
	e.mu.Lock()
	if t, ok := e.soloCache[key]; ok {
		e.mu.Unlock()
		return t, nil
	}
	e.mu.Unlock()
	t, err := e.RunWithBubbles(w, make([]float64, nodes))
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	e.soloCache[key] = t
	e.mu.Unlock()
	return t, nil
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
	if solo <= 0 {
		return 0, fmt.Errorf("measure: non-positive solo time for %s", w.Name)
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

// RunWithCoRunner runs w across `nodes` nodes with a co-runner application
// unit on each node listed in coNodes and returns w's mean execution time.
// The co-runner's units use its slave-generation profile (its master, if
// any, is assumed to live elsewhere).
func (e *Env) RunWithCoRunner(w, co workloads.Workload, nodes int, coNodes []int) (float64, error) {
	coSet, err := e.checkCoRunner(nodes, coNodes)
	if err != nil {
		return 0, err
	}
	if err := e.failure("co-runner", w.Name); err != nil {
		return 0, err
	}
	nonce := e.nextNonce()
	wr, cr := e.intern(w), e.intern(co)
	key := e.coRunnerCacheKey(wr, cr, nodes, coSet)
	if v, ok := e.cacheGet(key); ok {
		return v[0], nil
	}
	mean, err := e.coRunnerBody(wr, cr, nodes, coSet, nonce)
	if err != nil {
		return 0, err
	}
	e.cachePut(key, []float64{mean})
	return mean, nil
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

// coRunnerBody is the worker-safe measurement body of RunWithCoRunner.
func (e *Env) coRunnerBody(wr, cr *workloadRef, nodes int, coSet map[int]bool, nonce int) (float64, error) {
	w, co := &wr.w, &cr.w
	times := make([]float64, 0, e.Reps)
	sd := make([]float64, nodes)
	st := new(streams)
	var scratch [maxKeyedOccupants]contention.Occupant
	for rep := 0; rep < e.Reps; rep++ {
		bg := e.backgroundStream(&st.bg, rep, nonce)
		for i := 0; i < nodes; i++ {
			occ := append(scratch[:0], contention.Occupant{Name: w.Name, Prof: w.Prof, Cores: e.UnitCores})
			if coSet[i] {
				occ = append(occ, contention.Occupant{Name: co.Name, Prof: co.GenProfile(1), Cores: e.UnitCores})
			}
			s, err := e.slowdownOn(i, occ, bg)
			if err != nil {
				return 0, err
			}
			sd[i] = s
		}
		t, err := e.runOnce(w, sd, rep, st)
		if err != nil {
			return 0, err
		}
		times = append(times, t)
	}
	return stats.Mean(times), nil
}

// PairResult reports a pairwise co-run (Section 4.3's validation setup:
// both applications span all nodes and share every host).
type PairResult struct {
	TimeA, TimeB             float64
	NormalizedA, NormalizedB float64
}

// RunPair co-runs applications a and b across `nodes` nodes, each holding
// one unit of each on every node.
func (e *Env) RunPair(a, b workloads.Workload, nodes int) (PairResult, error) {
	outs, err := e.RunGroup([]workloads.Workload{a, b}, nodes)
	if err != nil {
		return PairResult{}, err
	}
	return PairResult{
		TimeA: outs[0].Time, TimeB: outs[1].Time,
		NormalizedA: outs[0].Normalized, NormalizedB: outs[1].Normalized,
	}, nil
}

// RunGroup co-runs any number of applications across `nodes` nodes, each
// holding one unit of every application on every node. Groups larger than
// two exercise the multi-way co-location extension (Section 4.4); the
// host must have enough cores for len(apps) units.
func (e *Env) RunGroup(apps []workloads.Workload, nodes int) ([]AppOutcome, error) {
	if err := e.checkGroup(apps, nodes); err != nil {
		return nil, err
	}
	if err := e.failure("group", ""); err != nil {
		return nil, err
	}
	e.count(MetricMeasureRuns)
	nonce := e.nextNonce()
	refs := e.internAll(apps)
	key := e.groupCacheKey(refs, nodes)
	means, ok := e.cacheGet(key)
	if !ok {
		var err error
		means, err = e.groupBody(refs, nodes, nonce)
		if err != nil {
			return nil, err
		}
		e.cachePut(key, means)
	}
	return e.groupOutcomes(apps, nodes, means)
}

// internAll interns every workload of a group.
func (e *Env) internAll(apps []workloads.Workload) []*workloadRef {
	refs := make([]*workloadRef, len(apps))
	for i, a := range apps {
		refs[i] = e.intern(a)
	}
	return refs
}

// checkGroup validates a group co-run request.
func (e *Env) checkGroup(apps []workloads.Workload, nodes int) error {
	if len(apps) == 0 {
		return errors.New("measure: empty application group")
	}
	if nodes <= 0 || nodes > e.Cluster.NumHosts {
		return fmt.Errorf("measure: bad node count %d", nodes)
	}
	if len(apps)*e.UnitCores > e.Cluster.HostSpec.Cores {
		return fmt.Errorf("measure: %d units of %d cores exceed host cores", len(apps), e.UnitCores)
	}
	return nil
}

// groupBody is the worker-safe measurement body of RunGroup: the per-app
// mean execution times, without the solo baselines (those are planned and
// cached separately).
func (e *Env) groupBody(apps []*workloadRef, nodes, nonce int) ([]float64, error) {
	defer e.Tracer.StartSpan("measure.group").End()
	sums := make([]float64, len(apps))
	sl := make([]float64, len(apps))       // one host's slowdowns
	sd := make([]float64, len(apps)*nodes) // app j's per-node slowdowns at [j*nodes:]
	// One spare entry so the background tenant is appended in place.
	occ := make([]contention.Occupant, len(apps), len(apps)+1)
	st := new(streams)
	for rep := 0; rep < e.Reps; rep++ {
		bg := e.backgroundStream(&st.bg, rep, nonce)
		for i := 0; i < nodes; i++ {
			for j, a := range apps {
				occ[j] = contention.Occupant{Name: a.w.Name, Prof: a.w.GenProfile(i), Cores: e.UnitCores}
			}
			if err := e.solveHost(sl, occ, i, bg); err != nil {
				return nil, err
			}
			f := e.degrade(i)
			for j := range apps {
				sd[j*nodes+i] = sl[j] * f
			}
		}
		for j, a := range apps {
			t, err := e.runOnce(&a.w, sd[j*nodes:(j+1)*nodes], rep, st)
			if err != nil {
				return nil, err
			}
			sums[j] += t
		}
	}
	for j := range sums {
		sums[j] /= float64(e.Reps)
	}
	return sums, nil
}

// groupOutcomes combines group mean times with the per-app solo baselines.
func (e *Env) groupOutcomes(apps []workloads.Workload, nodes int, means []float64) ([]AppOutcome, error) {
	outs := make([]AppOutcome, len(apps))
	for j, a := range apps {
		solo, err := e.Solo(a, nodes)
		if err != nil {
			return nil, err
		}
		outs[j] = AppOutcome{Time: means[j], Solo: solo, Normalized: means[j] / solo, Nodes: nodes}
	}
	return outs, nil
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
func (e *Env) RunPlacement(p *cluster.Placement, reg map[string]workloads.Workload) (map[string]AppOutcome, error) {
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
	if err := e.failure("placement", ""); err != nil {
		return nil, err
	}
	e.count(MetricPlacementRuns)
	span := e.Tracer.StartSpan("measure.placement")
	defer span.End()
	// Unit i of app j (in UnitPositions order) is node i of j's run, so its
	// slowdown goes to sd[first[j]+i]; unit[k] is that index for the unit
	// in slot k = host*HostSlots+slot. The occupants are the same in every
	// repetition, so they are built once, one per unit: sibling units of
	// the same application interfere like any other co-location.
	refs := make([]*workloadRef, len(apps))
	first := make([]int, len(apps)+1)
	slotOcc := make([]contention.Occupant, p.NumHosts*p.HostSlots)
	unit := make([]int, len(slotOcc))
	for j, a := range apps {
		refs[j] = e.intern(reg[a])
		pos := p.UnitPositions(a)
		for i, up := range pos {
			k := up.Host*p.HostSlots + up.Slot
			slotOcc[k] = contention.Occupant{
				Name:  fmt.Sprintf("%s#%d", a, i),
				Prof:  refs[j].w.GenProfile(i),
				Cores: e.UnitCores,
			}
			unit[k] = first[j] + i
		}
		first[j+1] = first[j] + len(pos)
	}

	nonce := e.nextNonce()
	sums := make([]float64, len(apps))
	sl := make([]float64, p.HostSlots)
	sd := make([]float64, first[len(apps)])
	// One spare entry so the background tenant is appended in place.
	occ := make([]contention.Occupant, 0, p.HostSlots+1)
	st := new(streams)
	for rep := 0; rep < e.Reps; rep++ {
		bg := e.backgroundStream(&st.bg, rep, nonce)
		// Solve every host once per repetition.
		for h := 0; h < p.NumHosts; h++ {
			row := p.Slots(h)
			occ = occ[:0]
			for s, a := range row {
				if a != "" {
					occ = append(occ, slotOcc[h*p.HostSlots+s])
				}
			}
			if len(occ) == 0 {
				continue
			}
			if err := e.solveHost(sl[:len(occ)], occ, h, bg); err != nil {
				return nil, fmt.Errorf("measure: host %d: %w", h, err)
			}
			f := e.degrade(h)
			n := 0
			for s, a := range row {
				if a != "" {
					sd[unit[h*p.HostSlots+s]] = sl[n] * f
					n++
				}
			}
		}
		for j := range apps {
			t, err := e.runOnce(&refs[j].w, sd[first[j]:first[j+1]], rep, st)
			if err != nil {
				return nil, err
			}
			sums[j] += t
		}
	}
	outcomes := map[string]AppOutcome{}
	for j, a := range apps {
		units := first[j+1] - first[j]
		solo, err := e.Solo(refs[j].w, units)
		if err != nil {
			return nil, err
		}
		mean := sums[j] / float64(e.Reps)
		outcomes[a] = AppOutcome{
			Time: mean, Solo: solo, Normalized: mean / solo, Nodes: units,
		}
		if e.Telemetry != nil {
			e.Telemetry.Gauge(telemetry.Label(MetricActualNormalized, "app", a)).Set(mean / solo)
		}
	}
	return outcomes, nil
}
