// Command loadgen replays a seeded open-loop arrival trace against a
// running interfd placement service and writes a deterministic load
// report: p50/p95/p99 latency and sustained requests/sec.
//
// Determinism contract: the report is a pure function of the flags. The
// trace (arrival offsets, app mixes, per-request seeds) comes from one
// seeded generator, every request carries an explicit search seed so the
// server's response is a pure function of the request body, and latency
// is computed on a virtual clock — the modeled SimServiceSeconds of each
// response pushed through a deterministic multi-server queue recurrence
// over the scheduled arrival times. Wall-clock timings go to the log and
// the RunReport only, never into the report file, so two runs with the
// same seed against the same server produce byte-identical reports.
//
// Examples:
//
//	loadgen -addr http://127.0.0.1:9090 -n 80 -rate 50 -seed 7
//	loadgen -addr-file /tmp/interfd.addr -n 40 -rate 200 -report lg.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Metric names loadgen appends to its own registry (RunReport wiring).
const (
	MetricRequests  = "loadgen_requests_total"
	MetricErrors    = "loadgen_errors_total"
	HistVirtualLat  = "loadgen_virtual_latency_seconds"
	GaugeSustained  = "loadgen_sustained_rps"
	GaugeOfferedRPS = "loadgen_offered_rps"
)

var logger = obs.Nop()

// genConfig is everything the deterministic pipeline depends on.
type genConfig struct {
	N        int      // requests in the trace
	Rate     float64  // offered arrival rate, requests/sec
	Seed     int64    // trace + per-request search seeds
	Pool     []string // application names to draw mixes from
	Servers  int      // virtual servers in the latency recurrence
	Iters    int      // per-request iteration override (0 = server default)
	Restarts int      // per-request restart override (0 = server default)
}

// timedRequest is one trace entry: the body plus its arrival offset on
// the virtual (and open-loop wall) clock.
type timedRequest struct {
	Arrival float64 // seconds since trace start
	Req     serve.PlaceRequest
}

// outcome records one response in arrival order.
type outcome struct {
	Status int
	Body   []byte
	Resp   serve.Response
	OK     bool
}

// latencyStats summarizes the virtual latency distribution in
// milliseconds.
type latencyStats struct {
	P50 float64 `json:"p50_ms"`
	P95 float64 `json:"p95_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

// reportDoc is the deterministic artifact written to -report.
type reportDoc struct {
	Tool            string       `json:"tool"`
	Seed            int64        `json:"seed"`
	Requests        int          `json:"requests"`
	Errors          int          `json:"errors"`
	OfferedRPS      float64      `json:"offered_rps"`
	SustainedRPS    float64      `json:"sustained_rps"`
	VirtualServers  int          `json:"virtual_servers"`
	Latency         latencyStats `json:"latency"`
	MeanObjective   float64      `json:"mean_objective"`
	QoSRequested    int          `json:"qos_requested"`
	QoSSatisfied    int          `json:"qos_satisfied"`
	Evaluations     int          `json:"evaluations"`
	SimServiceTotal float64      `json:"sim_service_seconds_total"`
	Digest          string       `json:"digest"`
}

// buildTrace derives the whole arrival trace from the seed: exponential
// inter-arrival gaps at the offered rate, a 1-2 app mix per request drawn
// from the pool, units of 2 or 4, an occasional QoS constraint, and an
// explicit nonzero search seed so the server answers deterministically.
func buildTrace(cfg genConfig) []timedRequest {
	rng := rand.New(rand.NewSource(cfg.Seed))
	trace := make([]timedRequest, cfg.N)
	clock := 0.0
	maxK := 2
	if len(cfg.Pool) < maxK {
		maxK = len(cfg.Pool)
	}
	for i := range trace {
		clock += rng.ExpFloat64() / cfg.Rate
		k := 1 + rng.Intn(maxK)
		perm := rng.Perm(len(cfg.Pool))
		apps := make([]serve.AppDemand, k)
		for j := 0; j < k; j++ {
			apps[j] = serve.AppDemand{App: cfg.Pool[perm[j]], Units: 2 + 2*rng.Intn(2)}
		}
		req := serve.PlaceRequest{
			ID:         fmt.Sprintf("lg-%05d", i),
			Apps:       apps,
			Seed:       cfg.Seed*1_000_003 + int64(i) + 1,
			Iterations: cfg.Iters,
			Restarts:   cfg.Restarts,
		}
		if rng.Float64() < 0.25 {
			req.QoSApp, req.QoSMax = apps[0].App, 1.5
		}
		trace[i] = timedRequest{Arrival: clock, Req: req}
	}
	return trace
}

// fire replays the trace open-loop: every request is posted at its
// scheduled offset from start, regardless of how earlier requests are
// doing. Outcomes come back indexed by trace position.
func fire(client *http.Client, base string, trace []timedRequest) []outcome {
	outs := make([]outcome, len(trace))
	start := time.Now()
	var wg sync.WaitGroup
	for i, tr := range trace {
		wg.Add(1)
		go func(i int, tr timedRequest) {
			defer wg.Done()
			if d := time.Duration(tr.Arrival*float64(time.Second)) - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			body, err := json.Marshal(tr.Req)
			if err != nil {
				outs[i] = outcome{Status: 0, Body: []byte(err.Error())}
				return
			}
			resp, err := client.Post(base+"/api/place", "application/json", bytes.NewReader(body))
			if err != nil {
				outs[i] = outcome{Status: 0, Body: []byte(err.Error())}
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				outs[i] = outcome{Status: 0, Body: []byte(err.Error())}
				return
			}
			o := outcome{Status: resp.StatusCode, Body: raw}
			if resp.StatusCode == http.StatusOK {
				if err := json.Unmarshal(raw, &o.Resp); err == nil {
					o.OK = true
				}
			}
			outs[i] = o
		}(i, tr)
	}
	wg.Wait()
	return outs
}

// quantile returns the nearest-rank q-quantile of sorted (ascending).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// analyze folds trace and outcomes into the deterministic report: virtual
// latency from a c-server queue recurrence over the modeled service
// times, sustained throughput from the virtual makespan, and an FNV-64a
// digest over every response body in arrival order.
func analyze(cfg genConfig, trace []timedRequest, outs []outcome, reg *telemetry.Registry) reportDoc {
	doc := reportDoc{
		Tool:           "loadgen",
		Seed:           cfg.Seed,
		Requests:       len(trace),
		OfferedRPS:     cfg.Rate,
		VirtualServers: cfg.Servers,
	}
	digest := fnv.New64a()
	free := make([]float64, cfg.Servers)
	var lats []float64
	makespan := 0.0
	for i, o := range outs {
		fmt.Fprintf(digest, "%05d:%d:", i, o.Status)
		digest.Write(o.Body)
		if !o.OK {
			doc.Errors++
			if reg != nil {
				reg.Counter(MetricErrors).Inc()
			}
			continue
		}
		if reg != nil {
			reg.Counter(MetricRequests).Inc()
		}
		// Virtual completion: the earliest-free server picks the
		// request up no sooner than its arrival.
		j := 0
		for k := 1; k < len(free); k++ {
			if free[k] < free[j] {
				j = k
			}
		}
		startAt := trace[i].Arrival
		if free[j] > startAt {
			startAt = free[j]
		}
		done := startAt + o.Resp.SimServiceSeconds
		free[j] = done
		lat := done - trace[i].Arrival
		lats = append(lats, lat)
		if done > makespan {
			makespan = done
		}
		if reg != nil {
			reg.Histogram(HistVirtualLat, telemetry.ExpBuckets(0.0005, 2, 14)).Observe(lat)
		}
		doc.MeanObjective += o.Resp.Objective
		doc.Evaluations += o.Resp.Evaluations
		doc.SimServiceTotal += o.Resp.SimServiceSeconds
		if trace[i].Req.QoSApp != "" {
			doc.QoSRequested++
			if o.Resp.QoSSatisfied {
				doc.QoSSatisfied++
			}
		}
	}
	if n := len(lats); n > 0 {
		doc.MeanObjective /= float64(n)
		sort.Float64s(lats)
		doc.Latency = latencyStats{
			P50: 1000 * quantile(lats, 0.50),
			P95: 1000 * quantile(lats, 0.95),
			P99: 1000 * quantile(lats, 0.99),
			Max: 1000 * lats[n-1],
		}
		if makespan > 0 {
			doc.SustainedRPS = float64(n) / makespan
		}
	}
	doc.Digest = fmt.Sprintf("fnv64:%016x", digest.Sum64())
	if reg != nil {
		reg.Gauge(GaugeOfferedRPS).Set(doc.OfferedRPS)
		reg.Gauge(GaugeSustained).Set(doc.SustainedRPS)
	}
	return doc
}

// runTrace is the whole deterministic pipeline: build, fire, analyze,
// marshal. The returned bytes are the report file content.
func runTrace(cfg genConfig, client *http.Client, base string, reg *telemetry.Registry) (reportDoc, []byte, error) {
	trace := buildTrace(cfg)
	wall := time.Now()
	outs := fire(client, base, trace)
	elapsed := time.Since(wall)
	doc := analyze(cfg, trace, outs, reg)
	logger.Info("trace replayed",
		"requests", doc.Requests, "errors", doc.Errors,
		"wall", elapsed, "wall_rps", float64(doc.Requests)/elapsed.Seconds(),
		"virtual_p99_ms", doc.Latency.P99, "sustained_rps", doc.SustainedRPS)
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return doc, nil, err
	}
	return doc, append(raw, '\n'), nil
}

// resolveAddr turns -addr / -addr-file into a base URL, polling the addr
// file into existence when interfd is still starting.
func resolveAddr(addr, addrFile string, deadline time.Time) (string, error) {
	if addr == "" && addrFile == "" {
		return "", fmt.Errorf("one of -addr or -addr-file is required")
	}
	if addrFile != "" {
		for {
			raw, err := os.ReadFile(addrFile)
			if err == nil && len(bytes.TrimSpace(raw)) > 0 {
				addr = strings.TrimSpace(string(raw))
				break
			}
			if time.Now().After(deadline) {
				return "", fmt.Errorf("addr file %s not readable: %v", addrFile, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/"), nil
}

// waitReady polls /readyz until the server accepts work.
func waitReady(client *http.Client, base string, deadline time.Time) error {
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz not ready before deadline", base)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "", "base URL of a running interfd, e.g. http://127.0.0.1:9090")
		addrFile   = fs.String("addr-file", "", "read the target address from this file (interfd -addr-file)")
		n          = fs.Int("n", 50, "requests in the trace")
		rate       = fs.Float64("rate", 25, "offered arrival rate, requests/sec")
		seed       = fs.Int64("seed", 1, "trace seed; also drives per-request search seeds")
		appsCSV    = fs.String("apps", "M.lmps,C.libq,H.KM,N.cg", "comma-separated app pool to draw request mixes from")
		servers    = fs.Int("servers", 2, "virtual servers in the latency recurrence")
		iters      = fs.Int("iters", 0, "per-request search iteration override (0 = server default)")
		restarts   = fs.Int("restarts", 0, "per-request search restart override (0 = server default)")
		reportPath = fs.String("report", "-", "write the deterministic load report here ('-' for stdout)")
		wait       = fs.Duration("wait", 30*time.Second, "how long to wait for the target to become ready")
		of         obs.Flags
	)
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := genConfig{
		N: *n, Rate: *rate, Seed: *seed,
		Pool:    strings.Split(*appsCSV, ","),
		Servers: *servers, Iters: *iters, Restarts: *restarts,
	}
	for i := range cfg.Pool {
		cfg.Pool[i] = strings.TrimSpace(cfg.Pool[i])
	}
	if cfg.N <= 0 || cfg.Rate <= 0 || cfg.Servers <= 0 || len(cfg.Pool) == 0 {
		return errors.New("need positive -n, -rate, -servers and a non-empty -apps pool")
	}

	o, err := of.Start("loadgen", *seed, args, stderr)
	if err != nil {
		return err
	}
	defer o.Close(&err)
	logger = o.Logger

	deadline := time.Now().Add(*wait)
	client := &http.Client{Timeout: *wait}
	base, err := resolveAddr(*addr, *addrFile, deadline)
	if err != nil {
		return err
	}
	logger.Info("targeting placement service", "addr", base, "n", cfg.N, "rate", cfg.Rate, "seed", cfg.Seed)
	if err := waitReady(client, base, deadline); err != nil {
		return err
	}

	sp := o.Tracer.StartSpan("loadgen.run")
	_, raw, err := runTrace(cfg, client, base, o.Registry)
	sp.End()
	if err != nil {
		return err
	}
	if *reportPath == "-" {
		_, err = stdout.Write(raw)
		return err
	}
	return os.WriteFile(*reportPath, raw, 0o644)
}
