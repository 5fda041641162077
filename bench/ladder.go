package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"
)

// The traced run walks one ladder from the HTTP round trip down to a
// matrix lookup, and the offline path from a whole reproduction down to
// one contention solve. Each rung is a call into a layer's public
// functions, timed from outside as a span; spans inside the program are a
// later change. The benchmark contract asks every traced run for every
// per-layer metric, so each workload's traced run reports the whole
// ladder; the workload only selects the traffic the live daemon is loaded
// with, and a suite walks the rest of the ladder once for all of them.

// ladderSizes are the operation counts behind the per-layer figures.
type ladderSizes struct {
	requests, searches, generates int
	fleet                         fleetScale
}

var (
	fullLadder  = ladderSizes{requests: 1000, searches: 100, generates: 5, fleet: fullFleet}
	quickLadder = ladderSizes{requests: 40, searches: 5, generates: 2, fleet: quickFleet}
)

// traced is one traced run's outcome.
type traced struct {
	values    map[string]float64
	attempted int
	failed    int
	spans     []span
}

// ladder carries the traced run's state from rung to rung.
type ladder struct {
	env   runEnv
	sizes ladderSizes
	rec   *recorder
	out   traced
	live  map[bool]traced // the live-daemon rungs, by traffic mix
}

// call times fn as a span and counts it as one attempted operation.
func (l *ladder) call(name string, parent, request int, fn func() error) (int, time.Duration) {
	id, d, err := l.rec.call(name, parent, request, fn)
	l.out.attempted++
	if err != nil {
		l.out.failed++
		fmt.Fprintf(os.Stderr, "bench: %s failed: %v\n", name, err)
	}
	return id, d
}

// walkLadder measures every rung that does not depend on the workload.
func walkLadder(env runEnv) (*ladder, error) {
	l := &ladder{env: env, sizes: fullLadder, rec: newRecorder(true), live: map[bool]traced{}}
	if env.quick {
		l.sizes = quickLadder
	}
	l.out.values = map[string]float64{}

	ms, err := buildModels(env.seed)
	if err != nil {
		return nil, err
	}
	l.out.values["core.build_model_ms"] = median(ms.buildMs)
	l.out.values["profile.binary_optimized_cost_pct"] = mean(ms.costPct)
	l.out.values["profile.build_settings_total"] = float64(ms.measured)

	for _, section := range []func(*modelSet) error{
		l.servingRungs,
		l.fleetRungs,
		func(*modelSet) error { return l.reproRungs() },
		l.microRungs,
	} {
		if err := section(ms); err != nil {
			return nil, err
		}
	}

	// Every span-derived figure is a median over the spans of that name.
	spans := l.rec.spans
	dur, self := byName(spans, durations(spans)), byName(spans, selfTimes(spans))
	us := func(v []float64) float64 { return median(v) / 1e3 }
	msec := func(v []float64) float64 { return median(v) / 1e6 }
	v := l.out.values
	v["obs.http_self_us"] = us(self["obs.http"])
	v["serve.place_us"] = us(dur["serve.place"])
	v["serve.whatif_us"] = us(dur["serve.whatif"])
	v["serve.admit_self_us"] = us(self["serve.place"])
	v["placement.search_us"] = us(dur["placement.search"])
	v["placement.search_setup_us"] = us(dur["placement.search_setup"])
	v["placement.step_ns"] = median(self["placement.search"]) / (searchIterations - 1)
	v["placement.evaluate_us"] = us(dur["placement.evaluate"])
	v["placement.fleet_setup_ms"] = msec(dur["placement.fleet_setup"])
	v["placement.cells_phase_ms"] = msec(self["placement.fleet_cells"])
	v["placement.exchange_phase_ms"] = msec(self["placement.fleet_search"])
	var sum float64
	for _, id := range runnerIDs() {
		s := median(dur["experiments."+id]) / 1e9
		v["experiments."+id+"_s"] = s
		sum += s
	}
	if whole := median(dur["experiments.reproduction"]) / 1e9; whole > 0 {
		v["experiments.residual_pct"] = 100 * (whole - sum) / whole
	}
	l.out.spans = spans
	return l, nil
}

// traced completes the ladder for one workload: the shared rungs plus the
// live daemon loaded with the workload's traffic (placements only, except
// for whatif_mix).
func (l *ladder) traced(workload string) (traced, error) {
	mix := workload == wlWhatIfMix
	live, ok := l.live[mix]
	if !ok {
		var err error
		if live, err = l.liveDaemon(mix); err != nil {
			return traced{}, err
		}
		l.live[mix] = live
	}
	out := traced{
		values:    map[string]float64{},
		attempted: l.out.attempted + live.attempted,
		failed:    l.out.failed + live.failed,
		spans:     l.out.spans,
	}
	for _, part := range []map[string]float64{l.out.values, live.values} {
		for name, v := range part {
			out.values[name] = v
		}
	}
	for _, name := range layerMetrics() {
		if _, ok := out.values[name]; !ok {
			return traced{}, fmt.Errorf("the ladder did not measure %s", name)
		}
	}
	return out, nil
}

// layerMetrics lists every per-layer metric the ladder measures; a test
// holds it equal to BENCHMARK.json's per_layer.
func layerMetrics() []string {
	out := []string{
		"obs.http_self_us",
		"serve.place_us", "serve.whatif_us", "serve.admit_self_us",
		"serve.batch_size_mean", "serve.shared_cache_hit_ratio", "serve.rejected_total",
		"serve.qos_satisfied_ratio", "serve.daemon_peak_rss_mb",
		"placement.search_us", "placement.search_setup_us", "placement.step_ns",
		"placement.evaluate_us", "placement.evals_per_search",
		"placement.combine_hit_ratio", "placement.pred_cache_hit_ratio",
		"placement.fleet_setup_ms", "placement.cells_phase_ms", "placement.exchange_phase_ms",
		"placement.exchange_accept_ratio", "placement.exchange_conflict_ratio",
		"placement.exchange_batch_occupancy",
		"placement.fleet_evals_per_search", "placement.fleet_mallocs_per_search",
		"core.model_predict_calls_per_search", "core.model_predict_ns",
		"core.delta_predict_ns", "core.build_model_ms",
		"hetero.convert_ns", "hetero.select_ms",
		"profile.matrix_at_ns", "profile.binary_optimized_cost_pct", "profile.build_settings_total",
		"experiments.model_build_s", "experiments.residual_pct",
		"measure.batch_us_per_job", "measure.run_placement_us",
		"measure.jobs_total", "measure.cache_hit_ratio",
		"app.bsp_run_us", "app.wavefront_run_us", "app.taskpool_run_us", "app.stages_run_us",
		"contention.solve_ns",
		"sim.events_fired_total", "sim.events_per_s",
		"fleet.generate_us",
		"ladder.place_gap_pct", "trace_overhead_pct",
	}
	for _, id := range runnerIDs() {
		out = append(out, "experiments."+id+"_s")
	}
	return out
}

// ---- serving rungs --------------------------------------------------------

// loopback serves handler on 127.0.0.1 for the duration of fn.
func loopback(handler http.Handler, fn func(base string) error) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	done := make(chan error, 1) // one send from the serving goroutine
	go func() { done <- srv.Serve(ln) }()
	err = fn("http://" + ln.Addr().String())
	srv.Close()
	if serr := <-done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// servingRungs replays one seeded placement stream down the serving
// ladder: loopback HTTP round trip, direct Service.Place, direct
// placement.Search at the service's configuration, the same search cut to
// one iteration (its set-up), then a what-if of the returned grid the
// same way down to placement.Evaluate.
func (l *ladder) servingRungs(ms *modelSet) error {
	rig, err := newServingRig(ms, l.env.seed)
	if err != nil {
		return err
	}
	defer rig.close()
	st := newStream(ms.names, l.env.seed, 0)
	var (
		evals, combineHits, combineMiss float64
		qosAsked, qosMet                int
		onNs, offNs                     int64
	)
	off := newRecorder(false)
	err = loopback(rig.handler, func(base string) error {
		c := newLoadClient(base, ms.names, l.env.seed, 0, false, 0)
		defer c.close()
		post := func(path string, body any, into *placeResponse) func() error {
			return func() error {
				data, err := json.Marshal(body)
				if err != nil {
					return err
				}
				ans, err := c.post(path, data)
				if err != nil {
					return err
				}
				*into, err = decodeResponse(ans)
				return err
			}
		}
		for k := 0; k < l.sizes.requests; k++ {
			req := st.nextPlace()
			var viaHTTP, direct, whatHTTP, whatDirect placeResponse
			var found searched

			idHTTP, _ := l.call("obs.http", 0, k, post("/api/place", req, &viaHTTP))
			idServe, _ := l.call("serve.place", idHTTP, k, func() (err error) {
				direct, err = rig.place(req)
				return err
			})
			idSearch, _ := l.call("placement.search", idServe, k, func() (err error) {
				found, err = rig.search(req, searchIterations, false)
				return err
			})
			l.call("placement.search_setup", idSearch, k, func() error {
				_, err := rig.search(req, 1, false)
				return err
			})
			if found.placement == nil {
				continue // the search failed and was counted
			}
			what := whatIfRequest{Placement: direct.Placement, QoSApp: req.QoSApp, QoSMax: req.QoSMax}
			idWhatHTTP, _ := l.call("obs.http", 0, k, post("/api/whatif", what, &whatHTTP))
			idWhat, _ := l.call("serve.whatif", idWhatHTTP, k, func() (err error) {
				whatDirect, err = rig.whatIf(what)
				return err
			})
			l.call("placement.evaluate", idWhat, k, found.evaluate)
			// The counters come from one more run of the same search, so
			// that metering does not slow the timed rung.
			l.call("observe", 0, k, func() error {
				_, err := rig.search(req, searchIterations, true)
				return err
			})

			// The same request must get the same answer on every rung.
			l.call("verify", 0, k, func() error {
				if err := verifyPlace(req, viaHTTP); err != nil {
					return err
				}
				if viaHTTP.Objective != direct.Objective || direct.Objective != found.objective {
					return fmt.Errorf("objective differs between rungs: http %v, service %v, search %v",
						viaHTTP.Objective, direct.Objective, found.objective)
				}
				if err := verifyWhatIf(direct, whatHTTP); err != nil {
					return err
				}
				return verifyWhatIf(direct, whatDirect)
			})
			evals += float64(found.evaluations)
			combineHits += float64(found.combineHits)
			combineMiss += float64(found.combineMiss)
			if req.QoSApp != "" {
				qosAsked++
				if direct.QoSSatisfied {
					qosMet++
				}
			}

			// Tracing cost: the same direct call with the recorder on
			// and off, alternating which goes first.
			timeIt := func(r *recorder) int64 {
				t0 := time.Now()
				r.call("overhead.place", 0, k, func() error {
					_, err := rig.place(req)
					return err
				})
				return time.Since(t0).Nanoseconds()
			}
			if k%2 == 0 {
				onNs += timeIt(l.rec)
				offNs += timeIt(off)
			} else {
				offNs += timeIt(off)
				onNs += timeIt(l.rec)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	n := float64(l.sizes.requests)
	v := l.out.values
	v["placement.evals_per_search"] = evals / n
	v["placement.combine_hit_ratio"] = ratio(combineHits, combineMiss)
	hits, misses := rig.predCacheTraffic()
	v["placement.pred_cache_hit_ratio"] = ratio(float64(hits), float64(misses))
	calls := float64(rig.meter.calls.Load())
	v["core.model_predict_calls_per_search"] = calls / n
	v["core.model_predict_ns"] = 0
	if calls > 0 {
		v["core.model_predict_ns"] = float64(rig.meter.ns.Load()) / calls
	}
	v["serve.qos_satisfied_ratio"] = ratio(float64(qosMet), float64(qosAsked-qosMet))
	v["trace_overhead_pct"] = 100 * float64(onNs-offNs) / float64(offNs)
	return nil
}

// ratio is a / (a + b), 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// ---- live daemon ----------------------------------------------------------

// liveDaemon loads a live interfd with the workload's traffic, first from
// one caller and then from all of them. The difference between the two
// medians is the queueing and CPU contention the in-process rungs do not
// see; the daemon's own counters over the loaded window give the batching
// and shared-cache figures.
func (l *ladder) liveDaemon(mix bool) (traced, error) {
	out := traced{values: map[string]float64{}}
	d, err := startDaemon(l.env.daemons, l.env.interfd, l.env.scratch, l.env.seed)
	if err != nil {
		return out, err
	}
	defer d.stop()
	warm, single, loaded := time.Second/2, l.env.window/8, l.env.window/4
	if l.env.quick {
		warm = time.Second / 10
	}
	isPlace := func(s sample) bool { return !s.whatIf }
	p50 := func(clients int, window time.Duration) (float64, httpLoad, error) {
		load, err := driveLoad(d, workloadNames(), l.env.seed, clients, mix, warm, window, 0)
		if err != nil {
			return 0, load, err
		}
		out.attempted += load.attempted
		out.failed += load.failed
		for _, e := range load.errs {
			fmt.Fprintln(os.Stderr, "bench: request failed:", e)
		}
		return slicedPercentile(load.samples, load.windowStart, load.window, 50, isPlace), load, nil
	}
	alone, _, err := p50(1, single)
	if err != nil {
		return out, err
	}
	busy, load, err := p50(l.env.clients, loaded)
	if err != nil {
		return out, err
	}
	if busy == 0 {
		return out, errors.New("no placement completed under load")
	}
	t := serveCounters(load.before, load.after)
	v := out.values
	v["ladder.place_gap_pct"] = 100 * (busy - alone) / busy
	v["serve.batch_size_mean"] = t.batchSizeMean
	v["serve.shared_cache_hit_ratio"] = t.sharedHitRatio
	v["serve.rejected_total"] = t.rejected
	v["serve.daemon_peak_rss_mb"], err = peakRSSMB(d.cmd.Process.Pid)
	return out, err
}

// ---- fleet rungs ----------------------------------------------------------

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// fleetRungs splits the hierarchical search into its phases from outside:
// the same seeded search runs whole, with the exchange cut to one
// proposal, and with the cell annealing cut to one step as well.
func (l *ladder) fleetRungs(ms *modelSet) error {
	var gen []float64
	for i := 0; i < l.sizes.generates; i++ {
		_, d := l.call("fleet.generate", 0, i, func() error {
			return generateFleet(l.sizes.fleet.hosts, l.env.seed)
		})
		gen = append(gen, float64(d.Nanoseconds())/1e3)
	}
	fp, err := newFleetProblem(ms, l.env.seed, l.sizes.fleet)
	if err != nil {
		return err
	}
	var evals, allocs float64
	for i := 0; i < l.sizes.searches; i++ {
		var res fleetSearched
		m0 := mallocs()
		idFull, _ := l.call("placement.fleet_search", 0, i, func() (err error) {
			res, err = fp.search(i, fleetFull)
			return err
		})
		allocs += float64(mallocs() - m0)
		evals += float64(res.evaluations)
		idCells, _ := l.call("placement.fleet_cells", idFull, i, func() error {
			_, err := fp.search(i, fleetCellsOnly)
			return err
		})
		l.call("placement.fleet_setup", idCells, i, func() error {
			_, err := fp.search(i, fleetSetupOnly)
			return err
		})
	}
	n := float64(l.sizes.searches)
	proposals, accepted, conflicts, occupancy := fp.exchangeTraffic()
	v := l.out.values
	v["fleet.generate_us"] = median(gen)
	v["placement.fleet_evals_per_search"] = evals / n
	v["placement.fleet_mallocs_per_search"] = allocs / n
	v["placement.exchange_accept_ratio"] = ratio(float64(accepted), float64(proposals-accepted))
	v["placement.exchange_conflict_ratio"] = ratio(float64(conflicts), float64(proposals-conflicts))
	v["placement.exchange_batch_occupancy"] = occupancy

	op, err := fp.deltaPredictOp()
	if err != nil {
		return err
	}
	v["core.delta_predict_ns"] = l.nsPerOp("core.delta_predict", op)
	m0 := mallocs()
	for i := 0; i < 1000; i++ {
		if err := op(); err != nil {
			return err
		}
	}
	l.call("verify", 0, 0, func() error {
		// ReadMemStats itself may allocate a few objects; a warm
		// DeltaPredictPos allocating per call would show as >= 1000.
		if n := mallocs() - m0; n >= 100 {
			return fmt.Errorf("warm DeltaPredictPos allocated (%d objects in 1000 calls)", n)
		}
		return nil
	})
	return nil
}

// ---- offline rungs --------------------------------------------------------

// reproRungs times each experiment on one cold lab in paper order, the
// model builds alone on another, a whole untraced reproduction for the
// residual, and an instrumented reproduction for the simulator's event
// counts. Instrumenting a lab turns off the closed-form application
// paths, so sim.events_per_s describes the event engine, not repro_s.
func (l *ladder) reproRungs() error {
	seed, quick := l.env.seed, l.env.quick
	cold, err := newLab(seed, quick, false)
	if err != nil {
		return err
	}
	for i, id := range runnerIDs() {
		l.call("experiments."+id, 0, i, func() error { return cold.run(id, io.Discard) })
	}
	hits, misses := cold.cacheTraffic()
	l.out.values["measure.cache_hit_ratio"] = ratio(float64(hits), float64(misses))

	models, err := newLab(seed, quick, false)
	if err != nil {
		return err
	}
	_, d := l.call("experiments.model_build", 0, 0, models.buildModels)
	l.out.values["experiments.model_build_s"] = d.Seconds()

	l.call("experiments.reproduction", 0, 0, func() error {
		_, err := reproduce(seed, quick)
		return err
	})

	inst, err := newLab(seed, quick, true)
	if err != nil {
		return err
	}
	_, d = l.call("experiments.instrumented", 0, 0, func() error {
		for _, id := range runnerIDs() {
			if err := inst.run(id, io.Discard); err != nil {
				return err
			}
		}
		return nil
	})
	events, jobs := inst.simTraffic()
	l.out.values["sim.events_fired_total"] = float64(events)
	l.out.values["sim.events_per_s"] = float64(events) / d.Seconds()
	l.out.values["measure.jobs_total"] = float64(jobs)
	return nil
}

// ---- micro rungs ----------------------------------------------------------

// nsPerOp times op from outside: batches sized to about a millisecond,
// median over batches, in nanoseconds per call.
func (l *ladder) nsPerOp(name string, op func() error) float64 {
	const batches = 15
	per := 1
	for {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			if err := op(); err != nil {
				l.call(name, 0, 0, func() error { return err })
				return 0
			}
		}
		if time.Since(t0) >= time.Millisecond || per >= 1<<20 {
			break
		}
		per *= 4
	}
	var ns []float64
	for b := 0; b < batches; b++ {
		_, d := l.call(name, 0, b, func() error {
			for i := 0; i < per; i++ {
				if err := op(); err != nil {
					return err
				}
			}
			return nil
		})
		ns = append(ns, float64(d.Nanoseconds())/float64(per))
	}
	return median(ns)
}

func (l *ladder) microRungs(ms *modelSet) error {
	seed := l.env.seed
	v := l.out.values
	v["hetero.convert_ns"] = l.nsPerOp("hetero.convert", ms.heteroConvertOp(seed))
	v["profile.matrix_at_ns"] = l.nsPerOp("profile.matrix_at", ms.matrixAtOp(seed))
	sel, err := ms.heteroSelectOp(seed)
	if err != nil {
		return err
	}
	v["hetero.select_ms"] = l.nsPerOp("hetero.select", sel) / 1e6
	solve, err := contentionSolveOp()
	if err != nil {
		return err
	}
	v["contention.solve_ns"] = l.nsPerOp("contention.solve", solve)
	for metric, workload := range map[string]string{
		"app.bsp_run_us":       "M.milc",
		"app.wavefront_run_us": "M.Gems",
		"app.taskpool_run_us":  "H.KM",
		"app.stages_run_us":    "S.CF",
	} {
		op, err := appRunOp(workload, seed)
		if err != nil {
			return err
		}
		v[metric] = l.nsPerOp(metric[:len(metric)-3], op) / 1e3
	}
	batch, jobs, err := measureBatchOp(seed)
	if err != nil {
		return err
	}
	v["measure.batch_us_per_job"] = l.nsPerOp("measure.batch", batch) / 1e3 / float64(jobs)
	run, err := runPlacementOp(seed)
	if err != nil {
		return err
	}
	v["measure.run_placement_us"] = l.nsPerOp("measure.run_placement", run) / 1e3
	return nil
}
