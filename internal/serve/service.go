package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Metric names exported by the service.
const (
	// MetricRequests counts completed requests, labeled by endpoint.
	MetricRequests = "serve_requests_total"
	// MetricRejected counts admissions refused on a full queue.
	MetricRejected = "serve_rejected_total"
	// MetricErrors counts requests that failed validation or search.
	MetricErrors = "serve_errors_total"
	// MetricPanics counts searches that panicked and were answered 500.
	MetricPanics = "serve_panics_total"
	// MetricBatches counts dispatcher batches executed.
	MetricBatches = "serve_batches_total"
	// MetricBatchSize is the size of the last executed batch.
	MetricBatchSize = "serve_batch_size"
	// MetricQueueDepth is the current admission-queue occupancy.
	MetricQueueDepth = "serve_queue_depth"
	// MetricCacheHits/Misses is the shared prediction-cache traffic
	// attributable to serving (deltas accumulated per batch).
	MetricCacheHits   = "serve_pred_cache_hits_total"
	MetricCacheMisses = "serve_pred_cache_misses_total"
	// MetricCombineHits/Misses is the combine-memo traffic of the
	// per-search caches (the co-runner score -> combined-pressure layer),
	// accumulated from each search's Result.
	MetricCombineHits   = "serve_pred_cache_combine_hits_total"
	MetricCombineMisses = "serve_pred_cache_combine_misses_total"

	// Per-stage latency histograms; each also exports interpolated
	// <name>_p50/_p95/_p99 gauges refreshed as requests complete.
	HistQueue   = "serve_queue_seconds"
	HistService = "serve_service_seconds"
	HistE2E     = "serve_e2e_seconds"
)

// Modeled service cost: the deterministic per-request "simulated" time
// reported in responses (base admission overhead plus a per-evaluation
// cost), a pure function of the evaluation count. The load generator's
// virtual-time queueing model consumes it, keeping its report independent
// of wall-clock jitter.
const (
	SimCostBase    = 0.001 // seconds per request
	SimCostPerEval = 1e-6  // seconds per model evaluation
)

// latencyBuckets covers 0.5ms to ~4s in doubling steps.
func latencyBuckets() []float64 { return telemetry.ExpBuckets(0.0005, 2, 14) }

// Config tunes a Service.
type Config struct {
	// Cluster dimensions every request is placed on.
	NumHosts         int
	SlotsPerHost     int
	AppsPerHostLimit int
	// DownHosts lists crashed hosts the search must avoid.
	DownHosts []int
	// Seed is the base seed mixed into per-request search seeds.
	Seed int64
	// Iterations/Restarts are the search defaults when a request does
	// not override them (600 / 1).
	Iterations int
	Restarts   int
	// QueueDepth bounds the admission queue (default 64); a full queue
	// rejects with 429 rather than building unbounded backlog.
	QueueDepth int
	// MaxBatch bounds how many queued requests one dispatcher batch
	// executes together (default 8).
	MaxBatch int
	// Workers bounds batch parallelism (default GOMAXPROCS, capped at
	// MaxBatch).
	Workers int

	// Telemetry receives the serve_* metric family; Tracer the per-
	// request span trees; SLO each request's end-to-end wall latency.
	// All optional.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
	SLO       *obs.SLOTracker
	Logger    *slog.Logger
}

// Backend is the model state requests are served against: one predictor
// and bubble score per application, typically built by profiling at
// daemon startup.
type Backend struct {
	Predictors map[string]core.Predictor
	Scores     map[string]float64
}

// Service is the placement-as-a-service engine. Construct with New, arm
// with SetBackend once models exist, and mount Routes on the obs server.
type Service struct {
	cfg    Config
	log    *slog.Logger
	shared *core.SharedPredictionCache

	mu     sync.RWMutex // guards preds/scores (the armed backend)
	preds  map[string]core.Predictor
	scores map[string]float64

	closeMu sync.RWMutex
	closed  bool
	queue   chan *pending
	stop    chan struct{}
	done    chan struct{}

	reqPlace, reqWhatIf, rejected, errs *telemetry.Counter
	panics                              *telemetry.Counter
	batches, cacheHits, cacheMisses     *telemetry.Counter
	combineHits, combineMisses          *telemetry.Counter
	batchSize, queueDepth               *telemetry.Gauge
	queueHist, serviceHist, e2eHist     *telemetry.Histogram

	lastHits, lastMisses uint64 // shared-cache stats at the last batch
	statsMu              sync.Mutex
}

// pending is one admitted placement request waiting for its batch.
type pending struct {
	req     PlaceRequest
	id      string
	root    *telemetry.Span
	waitSp  *telemetry.Span
	started time.Time // admission (root span start)
	enq     time.Time // enqueue
	resp    Response
	status  int
	err     error
	done    chan struct{}
}

// New builds and starts a Service (its dispatcher runs until Close).
func New(cfg Config) (*Service, error) {
	if cfg.NumHosts <= 0 || cfg.SlotsPerHost <= 0 {
		return nil, errors.New("serve: non-positive cluster dimensions")
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 600
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers > cfg.MaxBatch {
		cfg.Workers = cfg.MaxBatch
	}
	log := cfg.Logger
	if log == nil {
		log = obs.Nop()
	}
	s := &Service{
		cfg:    cfg,
		log:    log,
		shared: core.NewSharedPredictionCache(),
		queue:  make(chan *pending, cfg.QueueDepth),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if reg := cfg.Telemetry; reg != nil {
		s.reqPlace = reg.Counter(telemetry.Label(MetricRequests, "endpoint", "place"))
		s.reqWhatIf = reg.Counter(telemetry.Label(MetricRequests, "endpoint", "whatif"))
		s.rejected = reg.Counter(MetricRejected)
		s.errs = reg.Counter(MetricErrors)
		s.panics = reg.Counter(MetricPanics)
		s.batches = reg.Counter(MetricBatches)
		s.cacheHits = reg.Counter(MetricCacheHits)
		s.cacheMisses = reg.Counter(MetricCacheMisses)
		s.combineHits = reg.Counter(MetricCombineHits)
		s.combineMisses = reg.Counter(MetricCombineMisses)
		s.batchSize = reg.Gauge(MetricBatchSize)
		s.queueDepth = reg.Gauge(MetricQueueDepth)
		s.queueHist = reg.Histogram(HistQueue, latencyBuckets())
		s.serviceHist = reg.Histogram(HistService, latencyBuckets())
		s.e2eHist = reg.Histogram(HistE2E, latencyBuckets())
		reg.SetHelp(MetricRequests, "Placement-service requests completed, by endpoint.")
		reg.SetHelp(MetricRejected, "Requests refused on a full admission queue.")
		reg.SetHelp(MetricErrors, "Requests failing validation or search.")
		reg.SetHelp(MetricPanics, "Searches that panicked; each was contained to its own request (HTTP 500).")
		reg.SetHelp(MetricBatches, "Dispatcher batches executed.")
		reg.SetHelp(MetricBatchSize, "Size of the last executed batch.")
		reg.SetHelp(MetricQueueDepth, "Admission-queue occupancy.")
		reg.SetHelp(MetricCacheHits, "Shared prediction-cache hits accumulated by serving.")
		reg.SetHelp(MetricCacheMisses, "Shared prediction-cache misses accumulated by serving.")
		reg.SetHelp(MetricCombineHits, "Per-search combine-memo hits accumulated by serving.")
		reg.SetHelp(MetricCombineMisses, "Per-search combine-memo misses accumulated by serving.")
		reg.SetHelp(HistQueue, "Seconds spent queued before batch execution.")
		reg.SetHelp(HistService, "Seconds spent executing the placement search.")
		reg.SetHelp(HistE2E, "End-to-end seconds from admission to response.")
	}
	go s.dispatch()
	return s, nil
}

// SetBackend arms the service with models; until then every request is
// answered 503. Predictors are wrapped by the service's shared prediction
// cache, so repeated pressure points across requests skip recomputation.
func (s *Service) SetBackend(b Backend) {
	wrapped := s.shared.WrapAll(b.Predictors)
	scores := make(map[string]float64, len(b.Scores))
	for k, v := range b.Scores {
		scores[k] = v
	}
	s.mu.Lock()
	s.preds = wrapped
	s.scores = scores
	s.mu.Unlock()
}

// Ready reports whether a backend is armed.
func (s *Service) Ready() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.preds != nil
}

// Close stops the dispatcher and rejects anything still queued.
func (s *Service) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	s.closeMu.Unlock()
	close(s.stop)
	<-s.done
	for {
		select {
		case p := <-s.queue:
			s.reject(p, http.StatusServiceUnavailable, errors.New("serve: service closed"))
		default:
			return
		}
	}
}

// Place admits one placement request, waits for its batch to execute, and
// returns the response with the HTTP status it maps to. It is the
// programmatic entry the HTTP handler and the benchmarks share.
func (s *Service) Place(req PlaceRequest) (Response, int, error) {
	id := req.requestID()
	root := s.cfg.Tracer.StartSpan("serve.place").SetRequest(id)
	started := time.Now()

	admit := root.StartChild("admit")
	if err := req.validate(); err != nil {
		admit.End()
		root.End()
		s.countError()
		return Response{}, http.StatusBadRequest, err
	}
	if err := s.checkBackend(req.Apps); err != nil {
		admit.End()
		root.End()
		s.countError()
		status := http.StatusServiceUnavailable
		if !errors.Is(err, errNotReady) {
			status = http.StatusBadRequest
		}
		return Response{}, status, err
	}
	p := &pending{req: req, id: id, root: root, started: started, done: make(chan struct{})}

	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		admit.End()
		s.reject(p, http.StatusServiceUnavailable, errors.New("serve: service closed"))
		<-p.done
		return p.resp, p.status, p.err
	}
	p.enq = time.Now()
	p.waitSp = root.StartChild("wait")
	select {
	case s.queue <- p:
		s.closeMu.RUnlock()
		admit.End()
		if s.queueDepth != nil {
			s.queueDepth.Set(float64(len(s.queue)))
		}
	default:
		s.closeMu.RUnlock()
		admit.End()
		if s.rejected != nil {
			s.rejected.Inc()
		}
		s.reject(p, http.StatusTooManyRequests, errors.New("serve: admission queue full"))
	}
	<-p.done
	return p.resp, p.status, p.err
}

// reject finalizes a pending request without executing it.
func (s *Service) reject(p *pending, status int, err error) {
	p.status = status
	p.err = err
	p.waitSp.End()
	p.root.End()
	close(p.done)
}

func (s *Service) countError() {
	if s.errs != nil {
		s.errs.Inc()
	}
}

var errNotReady = errors.New("serve: no backend armed yet")

// checkBackend verifies every requested app has a model.
func (s *Service) checkBackend(apps []AppDemand) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.preds == nil {
		return errNotReady
	}
	for _, a := range apps {
		if _, ok := s.preds[a.App]; !ok {
			return fmt.Errorf("serve: no model for app %q", a.App)
		}
		if _, ok := s.scores[a.App]; !ok {
			return fmt.Errorf("serve: no bubble score for app %q", a.App)
		}
	}
	return nil
}

// backendFor snapshots the predictor/score subset a request needs.
func (s *Service) backendFor(apps []AppDemand) (map[string]core.Predictor, map[string]float64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	preds := make(map[string]core.Predictor, len(apps))
	scores := make(map[string]float64, len(apps))
	for _, a := range apps {
		preds[a.App] = s.preds[a.App]
		scores[a.App] = s.scores[a.App]
	}
	return preds, scores
}

// dispatch is the admission loop: it blocks for the next request, drains
// whatever else is already queued (up to MaxBatch) into one batch — the
// serial plan, in admission order — and executes the batch.
func (s *Service) dispatch() {
	defer close(s.done)
	for {
		var first *pending
		select {
		case first = <-s.queue:
		case <-s.stop:
			return
		}
		batch := []*pending{first}
		for len(batch) < s.cfg.MaxBatch {
			select {
			case p := <-s.queue:
				batch = append(batch, p)
			default:
				goto run
			}
		}
	run:
		if s.queueDepth != nil {
			s.queueDepth.Set(float64(len(s.queue)))
		}
		s.runBatch(batch)
	}
}

// runBatch executes one admission batch with the measurement engine's
// discipline: the plan is the admission order, execution is the ordered
// fan-out claiming items in plan order, and completion is an ordered
// merge — so observable side effects (metrics, SLO, span ends, response
// delivery) happen in admission order, while each response itself depends
// only on its request.
func (s *Service) runBatch(batch []*pending) {
	if s.batches != nil {
		s.batches.Inc()
		s.batchSize.Set(float64(len(batch)))
	}
	sim.FanOut(len(batch), s.cfg.Workers, func(i int) { s.executeOne(batch[i]) })

	// Ordered merge: finalize in admission order.
	for _, p := range batch {
		respond := p.root.StartChild("respond")
		e2e := time.Since(p.started).Seconds()
		if s.e2eHist != nil {
			s.e2eHist.Observe(e2e)
		}
		if p.err == nil && s.reqPlace != nil {
			s.reqPlace.Inc()
		}
		if p.err != nil {
			s.countError()
		}
		s.cfg.SLO.Observe(e2e)
		respond.End()
		p.root.End()
		close(p.done)
	}
	s.accountCache()
	s.refreshQuantiles()
}

// executeOne runs the search for one admitted request. Called from batch
// workers; it records the queue-wait and search stages but leaves
// admission-ordered side effects to the merge.
func (s *Service) executeOne(p *pending) {
	p.waitSp.End()
	if s.queueHist != nil {
		s.queueHist.Observe(time.Since(p.enq).Seconds())
	}
	search := p.root.StartChild("search")
	t0 := time.Now()
	p.resp, p.status, p.err = s.searchContained(p.req, p.id)
	search.SetSimSeconds(p.resp.SimServiceSeconds)
	search.End()
	if s.serviceHist != nil {
		s.serviceHist.Observe(time.Since(t0).Seconds())
	}
}

// searchContained is search with the HTTP status its outcome maps to, and
// with a panic below it — a predictor, the search engine — contained to
// this request: it is answered 500 and counted, the daemon and the rest
// of the batch carry on.
func (s *Service) searchContained(req PlaceRequest, id string) (resp Response, status int, err error) {
	defer func() {
		if r := recover(); r != nil {
			if s.panics != nil {
				s.panics.Inc()
			}
			// The panic value (and, from a fan-out worker, its stack)
			// goes to the log, not to the client.
			s.log.Error("search panicked", "request", id, "panic", r)
			resp, status, err = Response{}, http.StatusInternalServerError, errors.New("serve: internal error: search panicked")
		}
	}()
	if resp, err = s.search(req, id); err != nil {
		return Response{}, http.StatusBadRequest, err
	}
	return resp, http.StatusOK, nil
}

// search runs the placement search for a request — a pure function of the
// request content and the armed backend.
func (s *Service) search(req PlaceRequest, id string) (Response, error) {
	preds, scores := s.backendFor(req.Apps)
	preq := placement.Request{
		NumHosts:         s.cfg.NumHosts,
		SlotsPerHost:     s.cfg.SlotsPerHost,
		AppsPerHostLimit: s.cfg.AppsPerHostLimit,
		Demands:          req.demands(),
		Predictors:       preds,
		Scores:           scores,
		DownHosts:        s.cfg.DownHosts,
	}
	pcfg := placement.Config{
		Iterations: s.cfg.Iterations,
		Restarts:   s.cfg.Restarts,
		Seed:       req.searchSeed(s.cfg.Seed),
	}
	if req.Iterations > 0 {
		pcfg.Iterations = req.Iterations
	}
	if req.Restarts > 0 {
		pcfg.Restarts = req.Restarts
	}
	if req.QoSApp != "" {
		pcfg.QoS = &placement.QoS{App: req.QoSApp, MaxNormalized: req.QoSMax}
	}
	res, err := placement.Search(preq, pcfg)
	if err != nil {
		return Response{}, err
	}
	// The combine memo lives in the per-search caches, so its traffic is
	// accounted from the search result.
	if s.combineHits != nil {
		s.combineHits.Add(res.CombineHits)
		s.combineMisses.Add(res.CombineMisses)
	}
	return Response{
		ID:                id,
		Endpoint:          "place",
		Seed:              pcfg.Seed,
		Placement:         encodePlacement(res.Placement),
		Objective:         res.Objective,
		Predicted:         res.Predicted,
		QoSSatisfied:      res.QoSSatisfied,
		Evaluations:       res.Evaluations,
		SimServiceSeconds: SimCostBase + SimCostPerEval*float64(res.Evaluations),
	}, nil
}

// WhatIf scores one concrete placement inline (no queue — a single model
// evaluation needs no batching) with the same observability: span tree,
// latency histograms, SLO feed.
func (s *Service) WhatIf(req WhatIfRequest) (Response, int, error) {
	id := req.ID
	if id == "" {
		id = fmt.Sprintf("whatif-%016x", whatIfHash(req))
	}
	root := s.cfg.Tracer.StartSpan("serve.whatif").SetRequest(id)
	started := time.Now()
	finish := func(status int, err error) (Response, int, error) {
		e2e := time.Since(started).Seconds()
		if s.e2eHist != nil {
			s.e2eHist.Observe(e2e)
		}
		s.cfg.SLO.Observe(e2e)
		root.End()
		if err != nil {
			s.countError()
			return Response{}, status, err
		}
		return Response{}, status, nil
	}

	admit := root.StartChild("admit")
	s.mu.RLock()
	ready := s.preds != nil
	s.mu.RUnlock()
	if !ready {
		admit.End()
		return finish(http.StatusServiceUnavailable, errNotReady)
	}
	if (req.QoSApp == "") != (req.QoSMax == 0) {
		admit.End()
		return finish(http.StatusBadRequest, errors.New("serve: qos_app and qos_max must be set together"))
	}
	p, err := decodePlacement(req.Placement, s.cfg.NumHosts, s.cfg.SlotsPerHost, s.cfg.AppsPerHostLimit)
	if err != nil {
		admit.End()
		return finish(http.StatusBadRequest, err)
	}
	apps := p.Apps()
	if len(apps) == 0 {
		admit.End()
		return finish(http.StatusBadRequest, errors.New("serve: empty placement"))
	}
	demands := make([]AppDemand, len(apps))
	for i, a := range apps {
		demands[i] = AppDemand{App: a, Units: p.UnitsOf(a)}
	}
	if err := s.checkBackend(demands); err != nil {
		admit.End()
		return finish(http.StatusBadRequest, err)
	}
	admit.End()

	predictSp := root.StartChild("predict")
	t0 := time.Now()
	preds, scores := s.backendFor(demands)
	var qos *placement.QoS
	if req.QoSApp != "" {
		qos = &placement.QoS{App: req.QoSApp, MaxNormalized: req.QoSMax}
	}
	ev, err := placement.Evaluate(p, placement.Request{
		NumHosts:         s.cfg.NumHosts,
		SlotsPerHost:     s.cfg.SlotsPerHost,
		AppsPerHostLimit: s.cfg.AppsPerHostLimit,
		Predictors:       preds,
		Scores:           scores,
	}, qos)
	predictSp.End()
	if s.serviceHist != nil {
		s.serviceHist.Observe(time.Since(t0).Seconds())
	}
	if err != nil {
		return finish(http.StatusBadRequest, err)
	}

	respond := root.StartChild("respond")
	resp := Response{
		ID:                id,
		Endpoint:          "whatif",
		Placement:         req.Placement,
		Objective:         ev.Objective,
		Predicted:         ev.Predicted,
		QoSSatisfied:      ev.QoSSatisfied,
		Evaluations:       ev.Evaluations,
		SimServiceSeconds: SimCostBase + SimCostPerEval*float64(ev.Evaluations),
	}
	respond.End()
	e2e := time.Since(started).Seconds()
	if s.e2eHist != nil {
		s.e2eHist.Observe(e2e)
	}
	s.cfg.SLO.Observe(e2e)
	if s.reqWhatIf != nil {
		s.reqWhatIf.Inc()
	}
	root.End()
	s.accountCache()
	s.refreshQuantiles()
	return resp, http.StatusOK, nil
}

// whatIfHash digests a what-if request for ID derivation.
func whatIfHash(req WhatIfRequest) uint64 {
	r := PlaceRequest{QoSApp: req.QoSApp, QoSMax: req.QoSMax}
	for h, row := range req.Placement {
		for s, app := range row {
			if app != "" {
				r.Apps = append(r.Apps, AppDemand{App: fmt.Sprintf("%d/%d/%s", h, s, app), Units: 1})
			}
		}
	}
	return r.hash()
}

// accountCache folds the shared cache's stats delta into the serve_*
// counters.
func (s *Service) accountCache() {
	if s.cacheHits == nil {
		return
	}
	hits, misses := s.shared.Stats()
	s.statsMu.Lock()
	dh, dm := hits-s.lastHits, misses-s.lastMisses
	s.lastHits, s.lastMisses = hits, misses
	s.statsMu.Unlock()
	s.cacheHits.Add(dh)
	s.cacheMisses.Add(dm)
}

// refreshQuantiles recomputes the interpolated latency percentiles for
// each serve_* histogram.
func (s *Service) refreshQuantiles() {
	if s.cfg.Telemetry == nil {
		return
	}
	for name, h := range map[string]*telemetry.Histogram{
		HistQueue: s.queueHist, HistService: s.serviceHist, HistE2E: s.e2eHist,
	} {
		snap := telemetry.HistogramSnapshot{Uppers: h.Uppers(), Counts: h.BucketCounts(), Count: h.Count()}
		if snap.Count == 0 {
			continue
		}
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50", 0.5}, {"_p95", 0.95}, {"_p99", 0.99}} {
			s.cfg.Telemetry.Gauge(name + q.suffix).Set(snap.Quantile(q.q))
		}
	}
}
