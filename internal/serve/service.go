package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/telemetry"
)

// Metric names exported by the service.
const (
	// MetricRequests counts completed requests, labeled by endpoint.
	MetricRequests = "serve_requests_total"
	// MetricRejected counts admissions refused on a full queue.
	MetricRejected = "serve_rejected_total"
	// metricErrors counts requests that failed validation or search.
	metricErrors = "serve_errors_total"
	// metricPanics counts searches that panicked and were answered 500,
	// and decision sinks that panicked after the answer.
	metricPanics = "serve_panics_total"
	// MetricQueueDepth is the current admission-queue occupancy.
	MetricQueueDepth = "serve_queue_depth"
	// metricCombineHits/Misses is the combine-memo traffic of the
	// per-search caches (the co-runner score -> combined-pressure layer),
	// accumulated from each search's Result.
	metricCombineHits   = "serve_pred_cache_combine_hits_total"
	metricCombineMisses = "serve_pred_cache_combine_misses_total"

	// Per-stage latency histograms; each also exports interpolated
	// <name>_p50/_p95/_p99 gauges, derived when the registry is read.
	histQueue   = "serve_queue_seconds"
	histService = "serve_service_seconds"
	HistE2E     = "serve_e2e_seconds"
)

// latencyBuckets covers 0.5ms to ~4s in doubling steps.
func latencyBuckets() []float64 { return telemetry.ExpBuckets(0.0005, 2, 14) }

// Config tunes a Service.
type Config struct {
	// Cluster dimensions every request is placed on.
	NumHosts         int
	SlotsPerHost     int
	AppsPerHostLimit int
	// Seed is the base seed mixed into per-request search seeds.
	Seed int64
	// Iterations/Restarts are the search defaults when a request does
	// not override them (600 / 1).
	Iterations int
	Restarts   int
	// QueueDepth bounds how many admitted requests may wait for a free
	// worker (default 64); a full queue rejects with 429 rather than
	// building unbounded backlog.
	QueueDepth int
	// Workers is how many searches run side by side (default
	// GOMAXPROCS); each worker owns one request from dequeue to reply.
	Workers int

	// Telemetry receives the serve_* metric family; Tracer the per-
	// request span trees; SLO each request's end-to-end wall latency.
	// All optional.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
	SLO       *obs.SLOTracker
	Logger    *slog.Logger
	// OnDecision, when set, is handed every placement the service
	// decided (status 200), on the worker that searched it and after the
	// request's caller has been released — so whatever it does delays the
	// worker's next request, never this one's answer. Close waits for it.
	OnDecision func(Decision)
}

// Decision is one finished placement search as OnDecision sees it: the
// request's identity, the search result, and the crashed-host set the
// search avoided (the backend's slice, shared and read-only).
type Decision struct {
	ID        string // explicit or derived request ID
	Hash      uint64 // content hash of the request
	Result    placement.Result
	DownHosts []int
}

// Backend is the model state requests are served against: one predictor
// and bubble score per application, typically built by profiling at
// daemon startup, and the crashed hosts every search must avoid.
type Backend struct {
	Predictors map[string]core.Predictor
	Scores     map[string]float64
	DownHosts  []int
}

// Service is the placement-as-a-service engine. Construct with New, arm
// with SetBackend once models exist, and mount Routes on the obs server.
type Service struct {
	cfg Config
	log *slog.Logger

	// backend is the armed model state (nil until SetBackend). Each
	// published value is a private copy that is never mutated, so requests
	// read it without a lock and share it without copying.
	backend atomic.Pointer[Backend]

	closeMu sync.RWMutex // orders admissions against Close
	closed  bool
	queue   chan *pending
	workers sync.WaitGroup

	reqPlace, reqWhatIf, rejected, errs *telemetry.Counter
	panics                              *telemetry.Counter
	combineHits, combineMisses          *telemetry.Counter
	queueDepth                          *telemetry.Gauge
	queueHist, serviceHist, e2eHist     *telemetry.Histogram
}

// pending is one admitted placement request, owned by its caller until it
// is queued and by exactly one worker from dequeue until done is closed.
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

// New builds and starts a Service (its workers run until Close).
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
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	log := cfg.Logger
	if log == nil {
		log = obs.Nop()
	}
	s := &Service{
		cfg:   cfg,
		log:   log,
		queue: make(chan *pending, cfg.QueueDepth),
	}
	if reg := cfg.Telemetry; reg != nil {
		s.reqPlace = reg.Counter(telemetry.Label(MetricRequests, "endpoint", "place"))
		s.reqWhatIf = reg.Counter(telemetry.Label(MetricRequests, "endpoint", "whatif"))
		s.rejected = reg.Counter(MetricRejected)
		s.errs = reg.Counter(metricErrors)
		s.panics = reg.Counter(metricPanics)
		s.combineHits = reg.Counter(metricCombineHits)
		s.combineMisses = reg.Counter(metricCombineMisses)
		s.queueDepth = reg.Gauge(MetricQueueDepth)
		s.queueHist = reg.Histogram(histQueue, latencyBuckets())
		s.serviceHist = reg.Histogram(histService, latencyBuckets())
		s.e2eHist = reg.Histogram(HistE2E, latencyBuckets())
		reg.ExportQuantiles(histQueue, histService, HistE2E)
		reg.SetHelp(MetricRequests, "Placement-service requests completed, by endpoint.")
		reg.SetHelp(MetricRejected, "Requests refused on a full admission queue.")
		reg.SetHelp(metricErrors, "Requests failing validation or search.")
		reg.SetHelp(metricPanics, "Searches (answered HTTP 500) and decision sinks that panicked; each was contained to its own request.")
		reg.SetHelp(MetricQueueDepth, "Admission-queue occupancy.")
		reg.SetHelp(metricCombineHits, "Per-search combine-memo hits accumulated by serving.")
		reg.SetHelp(metricCombineMisses, "Per-search combine-memo misses accumulated by serving.")
		reg.SetHelp(histQueue, "Seconds spent queued before a worker took the request.")
		reg.SetHelp(histService, "Seconds spent executing the placement search.")
		reg.SetHelp(HistE2E, "End-to-end seconds from admission to response.")
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.work()
	}
	return s, nil
}

// SetBackend arms the service with models; until then every request is
// answered 503; arming again swaps models and down hosts together. The
// contents are copied, so the caller may go on using its own.
func (s *Service) SetBackend(b Backend) {
	s.backend.Store(&Backend{
		Predictors: maps.Clone(b.Predictors), Scores: maps.Clone(b.Scores),
		DownHosts: slices.Clone(b.DownHosts),
	})
}

// Ready reports whether a backend is armed.
func (s *Service) Ready() bool { return s.backend.Load() != nil }

// Close stops admitting, answers 503 to whatever is still queued, and
// returns once the searches already on a worker have finished, been
// answered and been through OnDecision. Safe to call more than once.
func (s *Service) Close() {
	s.closeMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue) // admissions send under closeMu.RLock, so none is mid-send
	}
	s.closeMu.Unlock()
	for p := range s.queue {
		s.reject(p, http.StatusServiceUnavailable, errClosed)
	}
	s.workers.Wait()
}

// Place admits one placement request, waits for a worker to run its
// search, and returns the response with the HTTP status it maps to. It is
// the programmatic entry the HTTP handler and the benchmarks share.
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
	if err := s.backend.Load().check(req.Apps); err != nil {
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
		s.reject(p, http.StatusServiceUnavailable, errClosed)
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

var (
	errNotReady = errors.New("serve: no backend armed yet")
	errClosed   = errors.New("serve: service closed")
)

// check verifies every requested app has a model; a nil backend is the
// unarmed service.
func (b *Backend) check(apps []AppDemand) error {
	if b == nil {
		return errNotReady
	}
	for _, a := range apps {
		if _, ok := b.Predictors[a.App]; !ok {
			return fmt.Errorf("serve: no model for app %q", a.App)
		}
		if _, ok := b.Scores[a.App]; !ok {
			return fmt.Errorf("serve: no bubble score for app %q", a.App)
		}
	}
	return nil
}

// work is one pool worker: it takes admitted requests off the queue one at
// a time until Close closes it, and owns each from dequeue to reply — the
// search, then the request's own side effects (histograms, SLO, spans,
// counters), then the release of its caller, then OnDecision. Workers
// share nothing mutable, so a slow search delays only the requests queued
// behind a fully busy pool, never one a free worker could have taken.
func (s *Service) work() {
	defer s.workers.Done()
	for p := range s.queue {
		p.waitSp.End()
		if s.queueDepth != nil {
			s.queueDepth.Set(float64(len(s.queue)))
			s.queueHist.Observe(time.Since(p.enq).Seconds())
		}
		search := p.root.StartChild("search")
		t0 := time.Now()
		var dec Decision
		p.resp, dec, p.status, p.err = s.searchContained(p.req, p.id)
		search.End()
		if s.serviceHist != nil {
			s.serviceHist.Observe(time.Since(t0).Seconds())
		}

		respond := p.root.StartChild("respond")
		e2e := time.Since(p.started).Seconds()
		if s.e2eHist != nil {
			s.e2eHist.Observe(e2e)
		}
		if p.err != nil {
			s.countError()
		} else if s.reqPlace != nil {
			s.reqPlace.Inc()
		}
		s.cfg.SLO.Observe(e2e)
		respond.End()
		p.root.End()
		decided := p.err == nil && s.cfg.OnDecision != nil
		close(p.done) // p is the caller's again
		if decided {
			s.handOn(dec)
		}
	}
}

// handOn gives a decision to the sink; a panic in there is logged and
// counted like one below the search, and costs the worker nothing else.
func (s *Service) handOn(dec Decision) {
	defer func() {
		if r := recover(); r != nil {
			if s.panics != nil {
				s.panics.Inc()
			}
			s.log.Error("decision sink panicked", "request", dec.ID, "panic", r)
		}
	}()
	s.cfg.OnDecision(dec)
}

// searchContained is search with the HTTP status its outcome maps to, and
// with a panic below it — a predictor, the search engine — contained to
// this request: it is answered 500 and counted, the daemon and the
// requests on the other workers carry on.
func (s *Service) searchContained(req PlaceRequest, id string) (resp Response, dec Decision, status int, err error) {
	defer func() {
		if r := recover(); r != nil {
			if s.panics != nil {
				s.panics.Inc()
			}
			// The panic value (and, from a restart worker below the
			// search, its stack) goes to the log, not to the client.
			s.log.Error("search panicked", "request", id, "panic", r)
			resp, dec, status, err = Response{}, Decision{}, http.StatusInternalServerError, errors.New("serve: internal error: search panicked")
		}
	}()
	if resp, dec, err = s.search(req, id); err != nil {
		return Response{}, Decision{}, http.StatusBadRequest, err
	}
	return resp, dec, http.StatusOK, nil
}

// search runs the placement search for a request — a pure function of the
// request content and the armed backend.
func (s *Service) search(req PlaceRequest, id string) (Response, Decision, error) {
	// The whole backend rides along: the search binds only the demanded
	// apps, and the published maps are never mutated.
	b := s.backend.Load()
	preq := placement.Request{
		NumHosts:         s.cfg.NumHosts,
		SlotsPerHost:     s.cfg.SlotsPerHost,
		AppsPerHostLimit: s.cfg.AppsPerHostLimit,
		Demands:          req.demands(),
		Predictors:       b.Predictors,
		Scores:           b.Scores,
		DownHosts:        b.DownHosts,
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
		return Response{}, Decision{}, err
	}
	// The combine memo lives in the per-search caches, so its traffic is
	// accounted from the search result.
	if s.combineHits != nil {
		s.combineHits.Add(res.CombineHits)
		s.combineMisses.Add(res.CombineMisses)
	}
	return Response{
		ID:           id,
		Endpoint:     "place",
		Seed:         pcfg.Seed,
		Placement:    encodePlacement(res.Placement),
		Objective:    res.Objective,
		Predicted:    res.Predicted,
		QoSSatisfied: res.QoSSatisfied,
		Evaluations:  res.Evaluations,
	}, Decision{ID: id, Hash: req.hash(), Result: res, DownHosts: b.DownHosts}, nil
}

// WhatIf scores one concrete placement inline, on the caller's goroutine
// (a single model evaluation is cheaper than a queue hand-off), with the
// same observability: span tree, latency histograms, SLO feed.
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
	b := s.backend.Load()
	if b == nil {
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
	// Evaluate reads an absent app's slowdown as 0 and would call any
	// bound on it met, and no bound below 1 can be met; /api/place rejects
	// both, so what-if does too.
	if req.QoSApp != "" && !slices.Contains(apps, req.QoSApp) {
		admit.End()
		return finish(http.StatusBadRequest, fmt.Errorf("serve: qos app %q not among requested apps", req.QoSApp))
	}
	if req.QoSApp != "" && req.QoSMax < 1 {
		admit.End()
		return finish(http.StatusBadRequest, fmt.Errorf("serve: QoS bound %v below 1 is unsatisfiable", req.QoSMax))
	}
	demands := make([]AppDemand, len(apps))
	for i, a := range apps {
		demands[i] = AppDemand{App: a, Units: p.UnitsOf(a)}
	}
	if err := b.check(demands); err != nil {
		admit.End()
		return finish(http.StatusBadRequest, err)
	}
	admit.End()

	predictSp := root.StartChild("predict")
	t0 := time.Now()
	var qos *placement.QoS
	if req.QoSApp != "" {
		qos = &placement.QoS{App: req.QoSApp, MaxNormalized: req.QoSMax}
	}
	ev, err := placement.Evaluate(p, placement.Request{
		NumHosts:         s.cfg.NumHosts,
		SlotsPerHost:     s.cfg.SlotsPerHost,
		AppsPerHostLimit: s.cfg.AppsPerHostLimit,
		Predictors:       b.Predictors,
		Scores:           b.Scores,
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
		ID:           id,
		Endpoint:     "whatif",
		Placement:    req.Placement,
		Objective:    ev.Objective,
		Predicted:    ev.Predicted,
		QoSSatisfied: ev.QoSSatisfied,
		Evaluations:  ev.Evaluations,
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
	return resp, http.StatusOK, nil
}
