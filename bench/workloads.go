package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"time"
)

// runEnv is what every run of a workload needs to know.
type runEnv struct {
	root    string        // checkout root (holds BENCHMARK.json and go.mod)
	scratch string        // bench/out: binaries, traces, daemon scratch
	interfd string        // built daemon binary
	seed    int64         // workload seed: every input derives from it
	window  time.Duration // timed window
	warm    time.Duration // discarded warm-up before it
	quick   bool          // smoke sizes: results are not comparable
	clients int           // closed-loop callers of the HTTP workloads
	daemons *daemons      // live interfd processes, stopped on interrupt
}

// untraced is one run's end-to-end outcome. Every workload fills every
// metric, so one table compares them all.
type untraced struct {
	setupS       float64 // set-up time, median of the run's cold set-ups
	opP50Ms      float64 // median latency of the workload's operation
	opTailMs     float64 // its tail latency, at tailPct
	opsPerS      float64 // operations completed per second of window
	qualityRatio float64 // how far the outputs are from ideal, as a factor: 1 is ideal
	allocMBPerOp float64 // memory allocated per operation by the process doing the work

	tailPct   float64 // percentile opTailMs was read at
	samples   int     // timed operations behind the latency figures
	attempted int
	failed    int
	info      map[string]string // reported, not gated: digests, ratios
}

func (u untraced) metrics() map[string]float64 {
	return map[string]float64{
		"setup_s":         u.setupS,
		"op_p50_ms":       u.opP50Ms,
		"op_tail_ms":      u.opTailMs,
		"ops_per_s":       u.opsPerS,
		"quality_ratio":   u.qualityRatio,
		"alloc_mb_per_op": u.allocMBPerOp,
	}
}

// The workloads, in the order BENCHMARK.json lists them.
const (
	wlPlacePaper  = "place_paper"
	wlWhatIfMix   = "whatif_mix"
	wlFleetSearch = "fleet_search"
	wlReproFull   = "repro_full"
)

var workloadOrder = []string{wlPlacePaper, wlWhatIfMix, wlFleetSearch, wlReproFull}

func runUntraced(name string, env runEnv) (untraced, error) {
	switch name {
	case wlPlacePaper:
		return runHTTPWorkload(env, false)
	case wlWhatIfMix:
		return runHTTPWorkload(env, true)
	case wlFleetSearch:
		return runFleetSearch(env)
	case wlReproFull:
		return runReproFull(env)
	}
	return untraced{}, fmt.Errorf("unknown workload %q", name)
}

// ---- place_paper, whatif_mix ---------------------------------------------

// coldStarts is how many times the daemon is started cold for setup_s;
// the last one stays up and takes the load.
const coldStarts = 5

// The deterministic quality sample: each client's first placement answers.
// Both HTTP workloads fill it inside the window, whatif_mix (a fifth of
// whose requests are placements) in about its first half.
const (
	qualityPlacements = 5000
	qualityQuick      = 100
)

func runHTTPWorkload(env runEnv, mix bool) (untraced, error) {
	starts, want := coldStarts, qualityPlacements
	if env.quick {
		starts, want = 1, qualityQuick
	}
	var setups []float64
	var d *daemon
	for i := 0; i < starts; i++ {
		if d != nil {
			d.stop()
		}
		var err error
		if d, err = startDaemon(env.daemons, env.interfd, env.scratch, env.seed); err != nil {
			return untraced{}, err
		}
		setups = append(setups, d.startup.Seconds())
	}
	defer d.stop()

	load, err := driveLoad(d, workloadNames(), env.seed, env.clients, mix, env.warm, env.window, want)
	if err != nil {
		return untraced{}, err
	}
	for _, e := range load.errs {
		fmt.Fprintln(os.Stderr, "bench: request failed:", e)
	}
	if len(load.samples) == 0 || load.q.n == 0 {
		return untraced{}, errors.New("no request was answered correctly inside the timed window")
	}
	if short := env.clients*want - load.q.n; short > 0 {
		// The top-up gave up: the figure would not be the seed's.
		load.attempted++
		load.failed++
		fmt.Fprintf(os.Stderr, "bench: quality sample is %d answers short\n", short)
	}
	// Only verified 200 answers are samples, so the rate, the latencies and
	// the allocation divisor never include a refused or wrong answer; those
	// are in failed (a 429 or 503 is counted there by the caller that got it).
	u := untraced{
		setupS:       median(setups),
		opsPerS:      float64(len(load.samples)) / load.window.Seconds(),
		qualityRatio: load.q.objective / float64(load.q.n),
		allocMBPerOp: load.allocBytes / 1e6 / float64(len(load.samples)),
		samples:      len(load.samples),
		attempted:    load.attempted,
		failed:       load.failed,
		info:         map[string]string{},
	}
	u.opP50Ms = slicedPercentile(load.samples, load.windowStart, load.window, 50, nil)
	u.tailPct = supportedPercentile(len(load.samples)/subWindows, 99)
	u.opTailMs = slicedPercentile(load.samples, load.windowStart, load.window, u.tailPct, nil)
	if load.q.qosAsked > 0 {
		u.info["qos_satisfied_ratio"] = fmt.Sprintf("%d/%d", load.q.qosMet, load.q.qosAsked)
	}
	u.info["serve"] = serveCounters(load.before, load.after).String()
	return u, nil
}

// serveTraffic is the daemon's own account of a window, from /metrics.
type serveTraffic struct {
	batchSizeMean, sharedHitRatio, rejected float64
}

func (t serveTraffic) String() string {
	return fmt.Sprintf("batch_size_mean=%.3f shared_cache_hit_ratio=%.4f rejected=%.0f",
		t.batchSizeMean, t.sharedHitRatio, t.rejected)
}

func serveCounters(before, after map[string]float64) serveTraffic {
	delta := func(name string) float64 { return after[name] - before[name] }
	var t serveTraffic
	if b := delta("serve_batches_total"); b > 0 {
		t.batchSizeMean = delta(`serve_requests_total{endpoint="place"}`) / b
	}
	hits, misses := delta("serve_pred_cache_hits_total"), delta("serve_pred_cache_misses_total")
	if hits+misses > 0 {
		t.sharedHitRatio = hits / (hits + misses)
	}
	t.rejected = delta("serve_rejected_total")
	return t
}

// ---- in-process workloads -------------------------------------------------

// coldSetups is how many times an in-process workload sets up for setup_s.
const coldSetups = 3

func totalAlloc() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc)
}

// fleetQualitySearches is how many searches, from the start of the seeded
// sequence, make up fleet_search's deterministic quality sample.
const fleetQualitySearches = 200

func runFleetSearch(env runEnv) (untraced, error) {
	scale, setups, quality := fullFleet, coldSetups, fleetQualitySearches
	if env.quick {
		scale, setups, quality = quickFleet, 1, 20
	}
	var setupS []float64
	var fp *fleetProblem
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		ms, err := buildModels(env.seed)
		if err != nil {
			return untraced{}, err
		}
		if fp, err = newFleetProblem(ms, env.seed, scale); err != nil {
			return untraced{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	u := untraced{setupS: median(setupS), info: map[string]string{}}
	search := func(i int) (fleetSearched, sample) {
		t0 := time.Now()
		res, err := fp.search(i, fleetFull)
		s := sample{start: t0, end: time.Now()}
		u.attempted++
		if err != nil {
			u.failed++
			fmt.Fprintln(os.Stderr, "bench: fleet search failed:", err)
		}
		return res, s
	}
	// Warm-up searches use seeds far from the timed sequence's.
	for i, end := 1<<30, time.Now().Add(env.warm); time.Now().Before(end); i++ {
		search(i)
	}
	var samples []sample
	var objective float64
	start := time.Now()
	end := start.Add(env.window)
	alloc0 := totalAlloc()
	i := 0
	for ; i == 0 || time.Now().Before(end); i++ {
		res, s := search(i)
		samples = append(samples, s)
		if i < quality {
			objective += res.objective
		}
	}
	alloc1 := totalAlloc()
	for ; i < quality; i++ { // a short window: finish the quality sample untimed
		res, _ := search(i)
		objective += res.objective
	}
	window := samples[len(samples)-1].end.Sub(start)
	u.samples = len(samples)
	u.opsPerS = float64(len(samples)) / window.Seconds()
	u.opP50Ms = slicedPercentile(samples, start, window, 50, nil)
	u.tailPct = supportedPercentile(len(samples)/subWindows, 95)
	u.opTailMs = slicedPercentile(samples, start, window, u.tailPct, nil)
	u.qualityRatio = objective / float64(quality)
	u.allocMBPerOp = (alloc1 - alloc0) / 1e6 / float64(len(samples))
	u.info["units"] = fmt.Sprint(fp.units)
	u.info["down_hosts"] = fmt.Sprint(len(fp.down))
	return u, nil
}

// minReproReps is the fewest timed reproductions a run reports on.
const minReproReps = 3

// reproduce runs the paper's whole evaluation once on a cold lab and
// returns the rendered bytes.
func reproduce(seed int64, quick bool) ([]byte, error) {
	l, err := newLab(seed, quick, false)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, id := range runnerIDs() {
		if err := l.run(id, &buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// digest is the FNV-64a digest the results print for rendered output.
func digest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

func runReproFull(env runEnv) (untraced, error) {
	setups := coldSetups
	if env.quick {
		setups = 1
	}
	var setupS []float64
	var l *lab
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		if l, err = newLab(env.seed, env.quick, false); err != nil {
			return untraced{}, err
		}
		if err := l.buildModels(); err != nil {
			return untraced{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	modelErr, err := l.modelErrPct(env.seed)
	if err != nil {
		return untraced{}, err
	}
	// The same scale as the placement workloads' objective: 1 is a model
	// that predicts the truth exactly.
	u := untraced{setupS: median(setupS), qualityRatio: 1 + modelErr/100, info: map[string]string{}}
	u.info["model_err_pct"] = fmt.Sprint(modelErr)

	// One discarded repetition warms the process (page cache, heap size);
	// the lab itself is cold on every repetition, as it is for a user.
	reference, err := reproduce(env.seed, env.quick)
	if err != nil {
		return untraced{}, err
	}
	u.info["render_digest"] = digest(reference)
	var ms []float64
	start := time.Now()
	alloc0 := totalAlloc()
	for n := 0; n < minReproReps || time.Since(start) < env.window; n++ {
		t0 := time.Now()
		out, err := reproduce(env.seed, env.quick)
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		u.attempted++
		switch {
		case err != nil:
			u.failed++
			fmt.Fprintln(os.Stderr, "bench: reproduction failed:", err)
		case !bytes.Equal(out, reference):
			u.failed++
			fmt.Fprintln(os.Stderr, "bench: reproduction rendered different bytes:", digest(out))
		}
	}
	window := time.Since(start)
	u.samples = len(ms)
	u.opsPerS = float64(len(ms)) / window.Seconds()
	u.opP50Ms = median(ms)
	// A handful of repetitions supports no percentile above the median.
	u.tailPct = supportedPercentile(len(ms), 99)
	u.opTailMs = u.opP50Ms
	if u.tailPct > 50 {
		u.opTailMs = percentile(sortedCopy(ms), u.tailPct)
	}
	u.allocMBPerOp = (totalAlloc() - alloc0) / 1e6 / float64(len(ms))
	return u, nil
}
