package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Connection limits of every HTTP server in the repository (the obs server
// and availd), so a slow or stalled client cannot hold a connection open
// indefinitely. WriteTimeout stays above the 30 s CPU profile that
// /debug/pprof/profile records by default.
const (
	ReadHeaderTimeout = 5 * time.Second
	ReadTimeout       = 30 * time.Second
	WriteTimeout      = 60 * time.Second
	IdleTimeout       = 120 * time.Second
)

// NewHTTPServer returns an http.Server for h with the connection limits
// above.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		ReadTimeout:       ReadTimeout,
		WriteTimeout:      WriteTimeout,
		IdleTimeout:       IdleTimeout,
	}
}

// Server exposes an observability plane over HTTP:
//
//	/metrics       Prometheus text exposition of the registry
//	/traces        retained spans as JSON lines (one span per line)
//	/healthz       liveness probe ("ok", 200)
//	/debug/pprof/  the standard net/http/pprof profiling endpoints
//
// The tracer is optional; without one, /traces serves an empty body.
type Server struct {
	reg    *Registry
	tracer *Tracer

	mu        sync.Mutex
	srv       *http.Server
	ln        net.Listener
	start     time.Time
	flushPath string
	flushed   bool

	// extra holds caller-registered routes (see Handle). It has its own lock
	// because Register runs while Start holds mu.
	extraMu sync.Mutex
	extra   map[string]http.Handler
}

// Handle registers an additional route on the observability plane, letting
// subsystems that would otherwise create an import cycle (obs → them) mount
// endpoints next to /metrics and /traces — e.g. tracemine's /discovered and
// /modeldrift. Routes must be registered before Start (or before Register is
// called on an external mux); duplicate patterns and patterns colliding with
// the built-in endpoints are rejected.
func (s *Server) Handle(pattern string, h http.Handler) error {
	if pattern == "" || h == nil {
		return fmt.Errorf("obs: Handle needs a pattern and a handler")
	}
	switch pattern {
	case "/metrics", "/traces", "/healthz":
		return fmt.Errorf("obs: pattern %s is reserved", pattern)
	}
	s.mu.Lock()
	started := s.ln != nil
	s.mu.Unlock()
	if started {
		return fmt.Errorf("obs: Handle(%s) after Start", pattern)
	}
	s.extraMu.Lock()
	defer s.extraMu.Unlock()
	if s.extra == nil {
		s.extra = make(map[string]http.Handler)
	}
	if _, dup := s.extra[pattern]; dup {
		return fmt.Errorf("obs: pattern %s already registered", pattern)
	}
	s.extra[pattern] = h
	return nil
}

// NewServer builds a server over the given registry and (optional) tracer.
func NewServer(reg *Registry, tracer *Tracer) *Server {
	return &Server{reg: reg, tracer: tracer}
}

// Handler returns the server's route table, usable directly in tests via
// httptest without opening a real listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Register(mux)
	return mux
}

// Register mounts the observability endpoints (/metrics, /traces, /healthz
// and the /debug/pprof tree) on a caller-supplied mux, so a service that
// already runs its own HTTP listener — e.g. the availd API — can expose its
// observability plane on the same port instead of opening a second one. The
// server itself need not be started; Register only wires routes.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.reg.WritePrometheus(w); err != nil {
			// Headers are gone; all we can do is abort the body.
			return
		}
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		limit := 0
		if raw := r.URL.Query().Get("limit"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 0 {
				http.Error(w, fmt.Sprintf("bad limit %q", raw), http.StatusBadRequest)
				return
			}
			limit = n
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if s.tracer != nil {
			_ = s.tracer.WriteJSONLLimit(w, limit)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.extraMu.Lock()
	patterns := make([]string, 0, len(s.extra))
	for p := range s.extra {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	for _, p := range patterns {
		mux.Handle(p, s.extra[p])
	}
	s.extraMu.Unlock()
}

// Start listens on addr (e.g. "127.0.0.1:9464", or ":0" for an ephemeral
// port) and serves in a background goroutine. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		return "", fmt.Errorf("obs: server already started on %s", s.ln.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.start = time.Now()
	s.srv = NewHTTPServer(s.Handler())
	if err := s.reg.GaugeFunc("obs_uptime_seconds",
		"seconds since the observability server started",
		func() float64 { return time.Since(s.start).Seconds() }); err != nil {
		ln.Close()
		s.ln = nil
		return "", err
	}
	if s.tracer != nil {
		if err := s.reg.CounterFunc("obs_traces_recorded_total",
			"span traces recorded into the ring (retained or evicted)",
			s.tracer.Recorded); err != nil {
			ln.Close()
			s.ln = nil
			return "", err
		}
	}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return ln.Addr().String(), nil
}

// SetFlushPath arranges for the retained trace ring to be written as JSON
// lines (one span per line) to path when the server stops — via Shutdown or
// Close, whichever runs first. An empty path disables flushing. Set it before
// the server stops; the flush happens at most once per server.
func (s *Server) SetFlushPath(path string) {
	s.mu.Lock()
	s.flushPath = path
	s.mu.Unlock()
}

// Shutdown stops the server gracefully: no new connections are accepted,
// in-flight scrapes are allowed to finish (bounded by ctx), and the trace
// ring is flushed to the configured path. Safe to call multiple times and
// without a prior Start — an unstarted server still flushes, so a run
// interrupted before serving loses no spans.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.srv
	s.srv = nil
	s.ln = nil
	s.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	if ferr := s.flushTraces(); ferr != nil && err == nil {
		err = ferr
	}
	return err
}

// Close stops the listener immediately, dropping in-flight requests, and
// flushes the trace ring if Shutdown has not already done so. Safe to call
// multiple times.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.srv = nil
	s.ln = nil
	s.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Close()
	}
	if ferr := s.flushTraces(); ferr != nil && err == nil {
		err = ferr
	}
	return err
}

// flushTraces writes the trace ring to the flush path, once.
func (s *Server) flushTraces() error {
	s.mu.Lock()
	path := s.flushPath
	done := s.flushed
	s.flushed = true
	s.mu.Unlock()
	if done || path == "" || s.tracer == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: flush traces: %w", err)
	}
	if err := s.tracer.WriteJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: flush traces: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: flush traces: %w", err)
	}
	return nil
}
