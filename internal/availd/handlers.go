package availd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/modelspec"
	"repro/internal/obs"
)

// Options configure a Server.
type Options struct {
	// Registry receives the availd_* and kernel_* metrics; nil creates a
	// private one.
	Registry *obs.Registry
	// Tracer, when non-nil, records one span per API request.
	Tracer *obs.Tracer
	// Workers bounds the sweep pool for grid and sweep evaluations (≤ 0
	// selects GOMAXPROCS).
	Workers int
	// JobWorkers is the async job pool size (default 2).
	JobWorkers int
	// QueueCapacity bounds the async job queue; a full queue sheds
	// submissions with 429 (default 16).
	QueueCapacity int
	// MemoLimit caps the cross-request response cache (default 4096
	// entries; ≤ -1 leaves it unbounded).
	MemoLimit int
	// SnapshotPath, when non-empty, persists the scenario store to this
	// JSON file after every mutation and loads it on startup.
	SnapshotPath string
}

// Server is the availability-as-a-service API: scenario CRUD, memoized
// point/what-if evaluation, async sensitivity sweeps and the paper's
// figure/table grids, instrumented with request counters, latency
// histograms and per-request spans.
type Server struct {
	store *Store
	eval  *Evaluator
	jobs  *Engine

	reg      *obs.Registry
	tracer   *obs.Tracer
	start    time.Time
	traceSeq atomic.Uint64
	resp5xx  *obs.Counter
}

// New assembles the service stack.
func New(opts Options) (*Server, error) {
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	if opts.JobWorkers == 0 {
		opts.JobWorkers = 2
	}
	if opts.QueueCapacity == 0 {
		opts.QueueCapacity = 16
	}
	if opts.MemoLimit == 0 {
		opts.MemoLimit = 4096
	}
	s := &Server{
		store:  NewStore(),
		eval:   NewEvaluator(opts.Workers, opts.MemoLimit),
		jobs:   NewEngine(opts.JobWorkers, opts.QueueCapacity),
		reg:    opts.Registry,
		tracer: opts.Tracer,
		start:  time.Now(),
	}
	if opts.SnapshotPath != "" {
		if err := s.store.SetSnapshotPath(opts.SnapshotPath); err != nil {
			s.jobs.Close()
			return nil, err
		}
	}
	if err := s.registerMetrics(); err != nil {
		s.jobs.Close()
		return nil, err
	}
	return s, nil
}

// Store exposes the scenario repository (for seeding and tests).
func (s *Server) Store() *Store { return s.store }

// Evaluator exposes the evaluation service.
func (s *Server) Evaluator() *Evaluator { return s.eval }

// Jobs exposes the async engine.
func (s *Server) Jobs() *Engine { return s.jobs }

// Close stops the job engine (cancelling running jobs) and releases workers.
func (s *Server) Close() { s.jobs.Close() }

// registerMetrics wires the static availd_* instruments, so every series a
// CI scrape asserts on exists from the first render.
func (s *Server) registerMetrics() error {
	var err error
	s.resp5xx, err = s.reg.Counter("availd_responses_5xx_total",
		"API responses with a 5xx status")
	if err != nil {
		return err
	}
	if err := s.reg.GaugeFunc("availd_uptime_seconds",
		"seconds since the availd service was assembled",
		func() float64 { return time.Since(s.start).Seconds() }); err != nil {
		return err
	}
	if err := s.reg.GaugeFunc("availd_scenarios",
		"scenarios in the store",
		func() float64 { return float64(s.store.Len()) }); err != nil {
		return err
	}
	memoCounter := func(name, help string, fn func() int64) error {
		return s.reg.CounterFunc(name, help, fn)
	}
	if err := memoCounter("availd_memo_hits_total",
		"evaluation cache hits (includes coalesced concurrent requests)",
		func() int64 { h, _, _, _ := s.eval.MemoStats(); return h }); err != nil {
		return err
	}
	if err := memoCounter("availd_memo_misses_total",
		"evaluation cache misses (distinct models solved)",
		func() int64 { _, m, _, _ := s.eval.MemoStats(); return m }); err != nil {
		return err
	}
	if err := memoCounter("availd_memo_evicted_total",
		"evaluation cache entries dropped by the size bound",
		func() int64 { _, _, e, _ := s.eval.MemoStats(); return e }); err != nil {
		return err
	}
	if err := s.reg.GaugeFunc("availd_memo_entries",
		"evaluation cache entries resident",
		func() float64 { _, _, _, n := s.eval.MemoStats(); return float64(n) }); err != nil {
		return err
	}
	// The structure and document caches behind the response memo.
	caches := []struct {
		hits, misses, evicted, entries, what string
		stats                                func() CacheStats
	}{
		{"availd_structure_cache_hits_total", "availd_structure_cache_misses_total",
			"availd_structure_cache_evicted_total", "availd_structure_cache_entries",
			"compiled model structure cache",
			func() CacheStats { _, st, _ := s.eval.CacheStats(); return st }},
		{"availd_document_cache_hits_total", "availd_document_cache_misses_total",
			"availd_document_cache_evicted_total", "availd_document_cache_entries",
			"resolved spec document cache",
			func() CacheStats { _, _, st := s.eval.CacheStats(); return st }},
	}
	for _, c := range caches {
		if err := s.reg.CounterFunc(c.hits, c.what+" hits",
			func() int64 { return c.stats().Hits }); err != nil {
			return err
		}
		if err := s.reg.CounterFunc(c.misses, c.what+" misses",
			func() int64 { return c.stats().Misses }); err != nil {
			return err
		}
		if err := s.reg.CounterFunc(c.evicted, c.what+" entries dropped by the size bound",
			func() int64 { return c.stats().Evicted }); err != nil {
			return err
		}
		if err := s.reg.GaugeFunc(c.entries, c.what+" entries resident",
			func() float64 { return float64(c.stats().Entries) }); err != nil {
			return err
		}
	}
	jobCounter := func(name, help string, fn func() int64) error {
		return s.reg.CounterFunc(name, help, fn)
	}
	if err := jobCounter("availd_jobs_submitted_total",
		"async jobs accepted into the queue",
		func() int64 { return s.jobs.Stats().Submitted }); err != nil {
		return err
	}
	if err := jobCounter("availd_jobs_shed_total",
		"async job submissions shed with 429 (queue full)",
		func() int64 { return s.jobs.Stats().Shed }); err != nil {
		return err
	}
	if err := jobCounter("availd_jobs_completed_total",
		"async jobs finished successfully",
		func() int64 { return s.jobs.Stats().Completed }); err != nil {
		return err
	}
	if err := jobCounter("availd_jobs_cancelled_total",
		"async jobs cancelled",
		func() int64 { return s.jobs.Stats().Cancelled }); err != nil {
		return err
	}
	if err := s.reg.GaugeFunc("availd_jobs_queued",
		"async jobs waiting in the queue",
		func() float64 { return float64(s.jobs.Stats().Queued) }); err != nil {
		return err
	}
	// The process-wide kernel counters, so a scrape shows which solver
	// tiers the figure/table batches actually hit.
	return obs.RegisterKernels(s.reg)
}

// Register mounts the /api/v1 routes on mux. Call obs.Server.Register on the
// same mux to serve /metrics, /traces and /healthz from the same listener.
func (s *Server) Register(mux *http.ServeMux) {
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(name, h))
	}
	route("GET /api/v1/scenarios", "scenarios", s.handleListScenarios)
	route("POST /api/v1/scenarios", "scenarios", s.handleCreateScenario)
	route("GET /api/v1/scenarios/{name}", "scenario", s.handleGetScenario)
	route("PUT /api/v1/scenarios/{name}", "scenario", s.handleUpdateScenario)
	route("DELETE /api/v1/scenarios/{name}", "scenario", s.handleDeleteScenario)
	route("POST /api/v1/evaluate", "evaluate", s.handleEvaluate)
	route("POST /api/v1/drift", "drift", s.handleDrift)
	route("POST /api/v1/sweep", "sweep", s.handleSubmitSweep)
	route("GET /api/v1/sweep", "sweep", s.handleListJobs)
	route("GET /api/v1/sweep/{id}", "sweep_job", s.handleGetJob)
	route("DELETE /api/v1/sweep/{id}", "sweep_job", s.handleCancelJob)
	route("GET /api/v1/figures/{n}", "figure", s.handleFigure)
	route("GET /api/v1/tables/8", "table8", s.handleTable8)
	route("GET /api/v1/stats", "stats", s.handleStats)
}

// Handler returns a standalone route table, without the obs endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Register(mux)
	return mux
}

// statusWriter captures the response code for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// routeMetrics are one route's instruments: its latency histogram and its
// request counters by method and status. Each is looked up in the registry
// once, on the first request that needs it, so a series still appears in
// /metrics only after its first request.
type routeMetrics struct {
	reg      *obs.Registry
	name     string
	histOnce sync.Once
	hist     *obs.Histogram
	mu       sync.RWMutex
	counters map[counterKey]*obs.Counter
}

type counterKey struct {
	method string
	code   int
}

// histogram returns the route's latency histogram, nil when it cannot be
// registered.
func (m *routeMetrics) histogram() *obs.Histogram {
	m.histOnce.Do(func() {
		m.hist, _ = m.reg.Histogram("availd_request_seconds",
			"API request latency in seconds", 1e-5, 2, 24,
			obs.Label{Key: "route", Value: m.name})
	})
	return m.hist
}

// counter returns the request counter of (method, code), nil when it cannot
// be registered.
func (m *routeMetrics) counter(method string, code int) *obs.Counter {
	key := counterKey{method, code}
	m.mu.RLock()
	c, ok := m.counters[key]
	m.mu.RUnlock()
	if ok {
		return c
	}
	c, _ = m.reg.Counter("availd_requests_total", "API requests served",
		obs.Label{Key: "route", Value: m.name},
		obs.Label{Key: "method", Value: method},
		obs.Label{Key: "code", Value: strconv.Itoa(code)})
	m.mu.Lock()
	m.counters[key] = c
	m.mu.Unlock()
	return c
}

// instrument wraps a handler with the request counter, latency histogram,
// 5xx counter and a per-request span.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	m := &routeMetrics{reg: s.reg, name: name, counters: make(map[counterKey]*obs.Counter)}
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)

		if c := m.counter(r.Method, sw.code); c != nil {
			c.Inc()
		}
		if sw.code >= 500 {
			s.resp5xx.Inc()
		}
		if hist := m.histogram(); hist != nil {
			hist.Observe(elapsed.Seconds())
		}
		if s.tracer != nil {
			s.tracer.Record(obs.Trace{Spans: []obs.Span{{
				Trace:    s.traceSeq.Add(1),
				ID:       1,
				Level:    obs.LevelVisit,
				Name:     r.Method + " " + r.URL.Path,
				Duration: elapsed.Seconds(),
				OK:       sw.code < 500,
				Attrs: map[string]string{
					"route": name,
					"code":  strconv.Itoa(sw.code),
				},
			}}})
		}
	}
}

// errorStatus maps service errors to HTTP statuses.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrExists), errors.Is(err, ErrVersion):
		return http.StatusConflict
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrInvalid), errors.Is(err, modelspec.ErrSpec):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, code, data)
}

// writeBody writes a pre-rendered JSON body verbatim, preserving
// bit-identity with the cached bytes.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body) //nolint:errcheck // client disconnects are not actionable
}

func writeError(w http.ResponseWriter, err error) {
	code := errorStatus(err)
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// Request body limits. A what-if or sweep body carries one spec document,
// and the travel agency's is about 5 KB; a drift upload carries raw spans,
// about 140 bytes each.
const (
	maxBodyBytes      = 1 << 20
	maxDriftBodyBytes = 32 << 20
)

// decodeBody decodes a JSON request body of at most limit bytes strictly
// (unknown fields rejected). On failure it writes the response — 413 above
// the limit, 400 otherwise — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	return decodeFrom(w, http.MaxBytesReader(w, r.Body, limit), v)
}

// decodeFrom is decodeBody on a body reader that enforces the limit.
func decodeFrom(w http.ResponseWriter, body io.Reader, v any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			map[string]string{"error": fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
		return false
	}
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("malformed request body: %v", err)})
	return false
}

// readBody appends the request body, read through http.MaxBytesReader with
// the given limit, to dst. On a read error it returns the bytes read so far
// with the error.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, dst []byte) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := body.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// errReader returns its error on every read.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// replayBody returns a reader that yields body and then the error readBody
// stopped on, so decodeFrom sees what it would have read from the request.
func replayBody(body []byte, err error) io.Reader {
	if err == nil {
		return bytes.NewReader(body)
	}
	return io.MultiReader(bytes.NewReader(body), errReader{err})
}

// --- scenario CRUD -------------------------------------------------------

// scenarioBody is the create/update payload.
type scenarioBody struct {
	Name    string          `json:"name,omitempty"`
	Version int64           `json:"version,omitempty"`
	Spec    json.RawMessage `json:"spec"`
}

func (s *Server) handleListScenarios(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": s.store.List()})
}

func (s *Server) handleCreateScenario(w http.ResponseWriter, r *http.Request) {
	var body scenarioBody
	if !decodeBody(w, r, maxBodyBytes, &body) {
		return
	}
	sc, err := s.store.Create(body.Name, body.Spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, sc)
}

func (s *Server) handleGetScenario(w http.ResponseWriter, r *http.Request) {
	sc, err := s.store.Get(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sc)
}

func (s *Server) handleUpdateScenario(w http.ResponseWriter, r *http.Request) {
	var body scenarioBody
	if !decodeBody(w, r, maxBodyBytes, &body) {
		return
	}
	sc, err := s.store.Update(r.PathValue("name"), body.Version, body.Spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sc)
}

func (s *Server) handleDeleteScenario(w http.ResponseWriter, r *http.Request) {
	var version int64
	if v := r.URL.Query().Get("version"); v != "" {
		parsed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed version"})
			return
		}
		version = parsed
	}
	if err := s.store.Delete(r.PathValue("name"), version); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- evaluation ----------------------------------------------------------

// specDocument returns the spec document a request names: exactly one of a
// stored scenario or an inline spec.
func (s *Server) specDocument(scenario string, inline json.RawMessage) ([]byte, error) {
	switch {
	case scenario != "" && inline != nil:
		return nil, fmt.Errorf("%w: give either scenario or spec, not both", ErrInvalid)
	case scenario != "":
		sc, err := s.store.Get(scenario)
		return sc.Spec, err
	case inline != nil:
		return inline, nil
	default:
		return nil, fmt.Errorf("%w: give a scenario name or an inline spec", ErrInvalid)
	}
}

// resolveDocument resolves a request's spec document through the
// evaluator's document cache.
func (s *Server) resolveDocument(scenario string, inline json.RawMessage) (*document, error) {
	raw, err := s.specDocument(scenario, inline)
	if err != nil {
		return nil, err
	}
	return s.eval.documentFor(raw)
}

// handleEvaluate reads the body once. A body in the scanner's shape whose
// spec is a cached document is served without decoding the spec again;
// every other body is decoded by decodeFrom, which gives it the status and
// the error text it always got.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	in, out := getBuffer(), getBuffer()
	defer putBuffer(in)
	defer putBuffer(out)
	body, readErr := readBody(w, r, maxBodyBytes, (*in)[:0])
	*in = body
	var req EvalRequest
	var d *document
	var err error
	ok := readErr == nil && scanEvalRequest(body, &req)
	switch {
	case ok && req.Spec != nil:
		d, err, ok = s.eval.cachedDocument(req.Spec)
	case ok:
		d, err = s.resolveDocument(req.Scenario, nil)
	}
	if !ok {
		req = EvalRequest{}
		if !decodeFrom(w, replayBody(body, readErr), &req) {
			return
		}
		d, err = s.resolveDocument(req.Scenario, req.Spec)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	resp, err := s.eval.appendEvaluation((*out)[:0], d, req.Overrides)
	if err != nil {
		writeError(w, err)
		return
	}
	*out = resp
	writeBody(w, http.StatusOK, resp)
}

// --- async sweep jobs ----------------------------------------------------

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeBody(w, r, maxBodyBytes, &req) {
		return
	}
	d, err := s.resolveDocument(req.Scenario, req.Spec)
	if err != nil {
		writeError(w, err)
		return
	}
	if err := req.validate(d); err != nil {
		writeError(w, err)
		return
	}
	request, err := json.Marshal(req)
	if err != nil {
		writeError(w, err)
		return
	}
	job, err := s.jobs.Submit("sweep", request, func(ctx context.Context) ([]byte, error) {
		return s.eval.runSweep(ctx, d, req)
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.List()})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// --- figures, tables, stats ---------------------------------------------

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		writeError(w, fmt.Errorf("%w: figure %q", ErrNotFound, r.PathValue("n")))
		return
	}
	body, err := s.eval.Figure(n)
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, http.StatusOK, body)
}

func (s *Server) handleTable8(w http.ResponseWriter, r *http.Request) {
	body, err := s.eval.Table8()
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, http.StatusOK, body)
}

// StatsResponse is the /api/v1/stats body: cache and job-engine health.
// Memo is the response cache; Structures and Documents are the compiled
// structure and resolved document caches behind it.
type StatsResponse struct {
	Scenarios  int        `json:"scenarios"`
	Memo       CacheStats `json:"memo"`
	Structures CacheStats `json:"structures"`
	Documents  CacheStats `json:"documents"`
	Composer   struct {
		RepairHits   int64 `json:"repairHits"`
		RepairMisses int64 `json:"repairMisses"`
		LossHits     int64 `json:"lossHits"`
		LossMisses   int64 `json:"lossMisses"`
	} `json:"composer"`
	Jobs EngineStats `json:"jobs"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp StatsResponse
	resp.Scenarios = s.store.Len()
	resp.Memo, resp.Structures, resp.Documents = s.eval.CacheStats()
	resp.Composer.RepairHits, resp.Composer.RepairMisses,
		resp.Composer.LossHits, resp.Composer.LossMisses = s.eval.Composer().CacheStats()
	resp.Jobs = s.jobs.Stats()
	writeJSON(w, http.StatusOK, resp)
}
