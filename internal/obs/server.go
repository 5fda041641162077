// Package obs is the live observability plane over internal/telemetry: an
// HTTP server exposing Prometheus metrics, health and readiness probes,
// live RunReport and span snapshots, a Server-Sent-Events stream of
// simulation events, and the net/http/pprof profilers — plus the shared
// slog-based structured logging the cmd/ tools use. cmd/interfd serves
// the plane; the batch tools report once, at exit.
//
// The package is standard-library-only and imports only internal/telemetry,
// so any layer above the simulation kernel can embed it.
package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Options configures a Server. Every field is optional: endpoints whose
// backing piece is absent degrade gracefully (empty metrics, 404 report,
// empty span list, 503 events).
type Options struct {
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
	// Report is the template RunReport the /api/report endpoint snapshots:
	// each request copies it and finalizes the copy against Registry and
	// Tracer, so the live wall time and metric state are always current.
	Report *telemetry.RunReport
	// Bus feeds /api/events. Nil disables the stream (503).
	Bus *Bus
	// Logger receives request-level debug logs; nil silences them.
	Logger *slog.Logger
	// DriftSnapshot feeds /api/drift: each request serves the returned
	// value as JSON (typically a drift.Snapshot). Nil disables the
	// endpoint (404). The function must be safe for concurrent calls.
	DriftSnapshot func() any
	// DecisionsJSONL feeds /api/decisions: each request streams the
	// placement decision audit log as JSON Lines (typically
	// drift.AuditLog.WriteJSONL). Nil disables the endpoint (404).
	DecisionsJSONL func(w io.Writer) error
	// SLOSnapshot feeds /api/slo: each request serves the returned value
	// as JSON (typically an SLOSnapshot composed with latency quantiles).
	// Nil disables the endpoint (404). Must be safe for concurrent calls.
	SLOSnapshot func() any
	// Runtime, when non-nil, is sampled at the top of every /metrics
	// scrape so the process-health gauges are fresh in the exposition.
	Runtime *RuntimeCollector
	// Routes mounts additional handlers on the plane's mux — the hook
	// layers above obs (e.g. the placement service's POST /api/place)
	// use to serve traffic through the same listener. Patterns use
	// net/http ServeMux syntax and must not collide with the built-in
	// endpoints.
	Routes map[string]http.Handler
}

// Server is the observability plane's HTTP state. Construct with New.
type Server struct {
	opts  Options
	ready atomic.Bool
	log   *slog.Logger
}

// New builds a Server; it starts not-ready.
func New(opts Options) *Server {
	log := opts.Logger
	if log == nil {
		log = Nop()
	}
	return &Server{opts: opts, log: log}
}

// SetReady flips the /readyz probe: the daemon calls SetReady(true) once
// its models are built and it serves.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports the current readiness state.
func (s *Server) Ready() bool { return s.ready.Load() }

// Bus returns the event bus serving /api/events (nil when none).
func (s *Server) Bus() *Bus { return s.opts.Bus }

// Handler returns the full observability mux:
//
//	GET /metrics            Prometheus text exposition
//	GET /healthz            liveness (always 200 once serving)
//	GET /readyz             readiness (503 until SetReady(true))
//	GET /api/report         live RunReport JSON snapshot
//	GET /api/spans          spans retained by the tracer ring
//	GET /api/events         Server-Sent-Events stream
//	GET /api/drift          model-drift snapshot (404 without a source)
//	GET /api/decisions      placement decision audit as JSON Lines
//	GET /api/slo            latency-SLO snapshot (404 without a source)
//	GET /debug/pprof/...    net/http/pprof profilers
//
// plus any handlers mounted via Options.Routes (the placement service's
// POST /api/place and POST /api/whatif in cmd/interfd).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /api/report", s.handleReport)
	mux.HandleFunc("GET /api/spans", s.handleSpans)
	mux.HandleFunc("GET /api/events", s.handleEvents)
	mux.HandleFunc("GET /api/drift", s.handleDrift)
	mux.HandleFunc("GET /api/decisions", s.handleDecisions)
	mux.HandleFunc("GET /api/slo", s.handleSLO)
	for pattern, h := range s.opts.Routes {
		mux.Handle(pattern, h)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.opts.Registry == nil {
		return
	}
	s.opts.Runtime.Sample()
	if err := s.opts.Registry.WritePrometheus(w); err != nil {
		s.log.Debug("metrics write failed", "err", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	fmt.Fprintln(w, "ready")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if s.opts.Report == nil {
		http.Error(w, "no run report", http.StatusNotFound)
		return
	}
	// Copy the template so finalizing never mutates the shared report.
	snap := *s.opts.Report
	snap.Finish(s.opts.Registry, s.opts.Tracer)
	writeJSON(w, snap)
}

func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	if s.opts.DriftSnapshot == nil {
		http.Error(w, "no drift tracker", http.StatusNotFound)
		return
	}
	writeJSON(w, s.opts.DriftSnapshot())
}

func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	if s.opts.DecisionsJSONL == nil {
		http.Error(w, "no decision audit log", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := s.opts.DecisionsJSONL(w); err != nil {
		s.log.Debug("decision audit write failed", "err", err)
	}
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if s.opts.SLOSnapshot == nil {
		http.Error(w, "no SLO tracker", http.StatusNotFound)
		return
	}
	writeJSON(w, s.opts.SLOSnapshot())
}

func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	tool := ""
	if s.opts.Report != nil {
		tool = s.opts.Report.Tool
	}
	writeJSON(w, telemetry.NewTraceReport(tool, s.opts.Tracer))
}

// handleEvents streams the bus as Server-Sent Events until the client
// disconnects. Every event is one `event:`/`data:` pair; a comment line
// heartbeats every 15s so idle proxies keep the connection open.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.opts.Bus == nil {
		http.Error(w, "no event bus", http.StatusServiceUnavailable)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// Subscribe before announcing the stream: a client that has seen the
	// headers may rely on every event published from then on reaching it.
	ch, cancel := s.opts.Bus.Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": stream open\n\n")
	fl.Flush()

	s.log.Debug("sse client connected", "remote", r.RemoteAddr)
	defer s.log.Debug("sse client disconnected", "remote", r.RemoteAddr)

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			if _, err := fmt.Fprintf(w, ": heartbeat\n\n"); err != nil {
				return
			}
			fl.Flush()
		case ev, open := <-ch:
			if !open {
				return
			}
			payload, err := json.Marshal(ev)
			if err != nil {
				s.log.Debug("sse marshal failed", "type", ev.Type, "err", err)
				continue
			}
			if _, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, payload); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// Running is a started observability server; stop it with Shutdown.
type Running struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string
	srv  *http.Server
	done chan error
}

// Start binds addr and serves the observability plane in a background
// goroutine. Use addr ":0" to pick a free port; the chosen address is in
// Running.Addr.
func (s *Server) Start(addr string) (*Running, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	run := &Running{Addr: ln.Addr().String(), srv: hs, done: make(chan error, 1)}
	go func() {
		err := hs.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		run.done <- err
	}()
	s.log.Info("observability plane listening", "addr", run.Addr)
	return run, nil
}

// Shutdown gracefully stops the server, waiting for in-flight requests up
// to the context deadline (SSE streams are closed by the shutdown).
func (r *Running) Shutdown(ctx context.Context) error {
	if r == nil {
		return nil
	}
	// Graceful shutdown waits for open connections; SSE clients hold
	// theirs forever, so cap the wait and fall back to Close.
	err := r.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		_ = r.srv.Close()
		err = nil
	}
	if serveErr := <-r.done; serveErr != nil && err == nil {
		err = serveErr
	}
	return err
}
