package availd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/modelspec"
	"repro/internal/obs"
)

// newTestServer builds a Server over a shared mux with the obs endpoints,
// mirroring the cmd/availd wiring.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	mux := http.NewServeMux()
	srv.Register(mux)
	obs.NewServer(opts.Registry, opts.Tracer).Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return srv, ts
}

func request(t *testing.T, ts *httptest.Server, method, path string, body []byte) (int, []byte) {
	t.Helper()
	code, data, err := do(ts.Client(), method, ts.URL+path, body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	return code, data
}

func TestScenarioEndpointsCRUD(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// Empty list.
	code, body := request(t, ts, http.MethodGet, "/api/v1/scenarios", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"scenarios":[]`) {
		t.Fatalf("empty list = %d %s", code, body)
	}

	create, _ := json.Marshal(map[string]any{"name": "shop", "spec": json.RawMessage(demoSpec(0.999))})
	code, body = request(t, ts, http.MethodPost, "/api/v1/scenarios", create)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %s", code, body)
	}
	var sc Scenario
	if err := json.Unmarshal(body, &sc); err != nil || sc.Version != 1 {
		t.Fatalf("created = %s (%v)", body, err)
	}

	// Conflict, not-found, unprocessable, malformed paths.
	code, _ = request(t, ts, http.MethodPost, "/api/v1/scenarios", create)
	if code != http.StatusConflict {
		t.Fatalf("duplicate create = %d", code)
	}
	code, _ = request(t, ts, http.MethodGet, "/api/v1/scenarios/ghost", nil)
	if code != http.StatusNotFound {
		t.Fatalf("get unknown = %d", code)
	}
	invalid, _ := json.Marshal(map[string]any{"name": "bad", "spec": json.RawMessage(`{"services":[]}`)})
	code, _ = request(t, ts, http.MethodPost, "/api/v1/scenarios", invalid)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("invalid spec = %d", code)
	}
	code, _ = request(t, ts, http.MethodPost, "/api/v1/scenarios", []byte(`{not json`))
	if code != http.StatusBadRequest {
		t.Fatalf("malformed body = %d", code)
	}

	// Optimistic update.
	stale, _ := json.Marshal(map[string]any{"version": 7, "spec": json.RawMessage(demoSpec(0.9))})
	code, _ = request(t, ts, http.MethodPut, "/api/v1/scenarios/shop", stale)
	if code != http.StatusConflict {
		t.Fatalf("stale update = %d", code)
	}
	fresh, _ := json.Marshal(map[string]any{"version": 1, "spec": json.RawMessage(demoSpec(0.9))})
	code, body = request(t, ts, http.MethodPut, "/api/v1/scenarios/shop", fresh)
	if code != http.StatusOK {
		t.Fatalf("update = %d %s", code, body)
	}

	// Versioned delete.
	code, _ = request(t, ts, http.MethodDelete, "/api/v1/scenarios/shop?version=1", nil)
	if code != http.StatusConflict {
		t.Fatalf("stale delete = %d", code)
	}
	code, _ = request(t, ts, http.MethodDelete, "/api/v1/scenarios/shop?version=2", nil)
	if code != http.StatusNoContent {
		t.Fatalf("delete = %d", code)
	}
	code, _ = request(t, ts, http.MethodDelete, "/api/v1/scenarios/shop", nil)
	if code != http.StatusNotFound {
		t.Fatalf("delete gone = %d", code)
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	if _, err := srv.Store().Create("shop", demoSpec(0.999)); err != nil {
		t.Fatal(err)
	}

	// Stored-scenario evaluation.
	code, body := request(t, ts, http.MethodPost, "/api/v1/evaluate", []byte(`{"scenario":"shop"}`))
	if code != http.StatusOK {
		t.Fatalf("evaluate = %d %s", code, body)
	}
	var resp EvalResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.UserAvailability <= 0 || resp.UserAvailability > 1 {
		t.Fatalf("user availability = %v", resp.UserAvailability)
	}

	// The same evaluation through modelspec directly must agree.
	spec, err := modelspec.Parse(demoSpec(0.999))
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if resp.UserAvailability != rep.UserAvailability {
		t.Fatalf("API %v != direct %v", resp.UserAvailability, rep.UserAvailability)
	}

	// What-if override: delta must equal modified − baseline.
	code, body = request(t, ts, http.MethodPost, "/api/v1/evaluate",
		[]byte(`{"scenario":"shop","overrides":{"WS":0.5}}`))
	if code != http.StatusOK {
		t.Fatalf("what-if = %d %s", code, body)
	}
	var whatIf EvalResponse
	if err := json.Unmarshal(body, &whatIf); err != nil {
		t.Fatal(err)
	}
	if whatIf.BaselineUserAvailability == nil || whatIf.Delta == nil {
		t.Fatalf("what-if missing baseline/delta: %s", body)
	}
	if *whatIf.BaselineUserAvailability != resp.UserAvailability {
		t.Fatalf("baseline %v != point %v", *whatIf.BaselineUserAvailability, resp.UserAvailability)
	}
	if got := whatIf.UserAvailability - *whatIf.BaselineUserAvailability; got != *whatIf.Delta {
		t.Fatalf("delta %v != %v", *whatIf.Delta, got)
	}
	if *whatIf.Delta >= 0 {
		t.Fatalf("degrading WS should lower availability, delta = %v", *whatIf.Delta)
	}

	// Unknown override service → 422; unknown scenario → 404; both spec and
	// scenario → 422; neither → 422.
	code, _ = request(t, ts, http.MethodPost, "/api/v1/evaluate",
		[]byte(`{"scenario":"shop","overrides":{"Nope":0.5}}`))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown override = %d", code)
	}
	code, _ = request(t, ts, http.MethodPost, "/api/v1/evaluate", []byte(`{"scenario":"ghost"}`))
	if code != http.StatusNotFound {
		t.Fatalf("unknown scenario = %d", code)
	}
	both := fmt.Sprintf(`{"scenario":"shop","spec":%s}`, demoSpec(0.9))
	code, _ = request(t, ts, http.MethodPost, "/api/v1/evaluate", []byte(both))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("both scenario and spec = %d", code)
	}
	code, _ = request(t, ts, http.MethodPost, "/api/v1/evaluate", []byte(`{}`))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("neither scenario nor spec = %d", code)
	}
}

// An inline spec whose diagram expands beyond the path-class state budget
// (eight services, every step reaching every other) is refused with 422
// before its chain is solved.
func TestEvaluateRejectsOversizedExpansion(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec, err := os.ReadFile("testdata/all_to_all_8.json")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	code, body := request(t, ts, http.MethodPost, "/api/v1/evaluate", []byte(fmt.Sprintf(`{"spec":%s}`, spec)))
	if code != http.StatusUnprocessableEntity || !strings.Contains(string(body), "state budget") {
		t.Fatalf("oversized expansion = %d %s, want 422 naming the state budget", code, body)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("oversized expansion refused after %v", elapsed)
	}
}

// TestEvaluateConcurrentByteIdentity is the -race gate: many concurrent
// clients issuing every request shape — a stored scenario with none, one
// and two overrides, an inline spec with and without overrides — must each
// receive exactly the bytes a fresh, uncached server returns for the same
// body sent serially, with the repeats served through the single-flight
// memo.
func TestEvaluateConcurrentByteIdentity(t *testing.T) {
	bodies := [][]byte{
		[]byte(`{"scenario":"shop"}`),
		[]byte(`{"scenario":"shop","overrides":{"WS":0.8}}`),
		[]byte(`{"scenario":"shop","overrides":{"DB":0.9,"PS":0.95}}`),
		fmt.Appendf(nil, `{"spec":%s}`, demoSpec(0.97)),
		fmt.Appendf(nil, `{"spec":%s,"overrides":{"WS":0.5}}`, demoSpec(0.97)),
	}
	newShop := func() (*Server, *httptest.Server) {
		srv, ts := newTestServer(t, Options{})
		if _, err := srv.Store().Create("shop", demoSpec(0.999)); err != nil {
			t.Fatal(err)
		}
		return srv, ts
	}
	reference := make([][]byte, len(bodies))
	for i, body := range bodies {
		_, ts := newShop()
		code, resp := request(t, ts, http.MethodPost, "/api/v1/evaluate", body)
		if code != http.StatusOK {
			t.Fatalf("reference %s: status %d: %s", body, code, resp)
		}
		reference[i] = resp
	}

	srv, ts := newShop()
	const perBody = 40
	var wg sync.WaitGroup
	responses := make([][]byte, len(bodies)*perBody)
	errs := make([]error, len(responses))
	for i := range responses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := bodies[i%len(bodies)]
			code, resp, err := do(ts.Client(), http.MethodPost, ts.URL+"/api/v1/evaluate", body)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status %d: %s", code, resp)
			}
			responses[i], errs[i] = resp, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := range responses {
		if want := reference[i%len(bodies)]; !bytes.Equal(responses[i], want) {
			t.Fatalf("response %d (%s) diverged from the serial reference:\n got %s\nwant %s",
				i, bodies[i%len(bodies)], responses[i], want)
		}
	}
	hits, misses, _, _ := srv.Evaluator().MemoStats()
	if hits == 0 {
		t.Fatal("no memo hits across identical concurrent requests")
	}
	// Each distinct model is solved once: five bodies, five models, since
	// each override body's baseline is the model of a body without
	// overrides.
	if misses != int64(len(bodies)) {
		t.Fatalf("misses = %d, want %d", misses, len(bodies))
	}
}

func TestSweepJobEndpoints(t *testing.T) {
	srv, ts := newTestServer(t, Options{JobWorkers: 1, QueueCapacity: 2})
	if _, err := srv.Store().Create("shop", demoSpec(0.999)); err != nil {
		t.Fatal(err)
	}

	// Validation: unknown service and bad grid are 422 before queueing.
	code, _ := request(t, ts, http.MethodPost, "/api/v1/sweep",
		[]byte(`{"scenario":"shop","service":"Nope","from":0.9,"to":1,"points":5}`))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown service = %d", code)
	}
	code, _ = request(t, ts, http.MethodPost, "/api/v1/sweep",
		[]byte(`{"scenario":"shop","service":"WS","from":0.9,"to":1,"points":1}`))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("bad points = %d", code)
	}

	// Lifecycle: accepted → done with a monotone result.
	code, body := request(t, ts, http.MethodPost, "/api/v1/sweep",
		[]byte(`{"scenario":"shop","service":"WS","from":0.9,"to":0.99,"points":8}`))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d %s", code, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := srv.Jobs().Wait(ctx, job.ID)
	if err != nil || final.State != JobDone {
		t.Fatalf("final = %+v, %v", final, err)
	}
	code, body = request(t, ts, http.MethodGet, "/api/v1/sweep/"+job.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("poll = %d", code)
	}
	var polled Job
	if err := json.Unmarshal(body, &polled); err != nil {
		t.Fatal(err)
	}
	var result SweepResponse
	if err := json.Unmarshal(polled.Result, &result); err != nil {
		t.Fatalf("result: %v (%s)", err, polled.Result)
	}
	if len(result.Points) != 8 {
		t.Fatalf("points = %d, want 8", len(result.Points))
	}
	for i := 1; i < len(result.Points); i++ {
		if result.Points[i].UserAvailability < result.Points[i-1].UserAvailability {
			t.Fatalf("sweep not monotone at point %d: %+v", i, result.Points)
		}
	}

	// Job listing knows the job; unknown ids are 404.
	code, body = request(t, ts, http.MethodGet, "/api/v1/sweep", nil)
	if code != http.StatusOK || !strings.Contains(string(body), job.ID) {
		t.Fatalf("list = %d %s", code, body)
	}
	code, _ = request(t, ts, http.MethodGet, "/api/v1/sweep/job-999", nil)
	if code != http.StatusNotFound {
		t.Fatalf("get unknown job = %d", code)
	}
	code, _ = request(t, ts, http.MethodDelete, "/api/v1/sweep/job-999", nil)
	if code != http.StatusNotFound {
		t.Fatalf("cancel unknown job = %d", code)
	}
}

// TestSweepJobCancellationAndShedding jams the single worker, fills the
// queue, and verifies the HTTP surface sheds with 429 and cancels queued
// jobs via DELETE.
func TestSweepJobCancellationAndShedding(t *testing.T) {
	srv, ts := newTestServer(t, Options{JobWorkers: 1, QueueCapacity: 1})
	if _, err := srv.Store().Create("shop", demoSpec(0.999)); err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	started := make(chan struct{})
	blocked, err := srv.Jobs().Submit("block", nil, func(ctx context.Context) ([]byte, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Occupies the single queue slot.
	submit := []byte(`{"scenario":"shop","service":"WS","from":0.9,"to":1,"points":4}`)
	code, body := request(t, ts, http.MethodPost, "/api/v1/sweep", submit)
	if code != http.StatusAccepted {
		t.Fatalf("queued submit = %d %s", code, body)
	}
	var queued Job
	if err := json.Unmarshal(body, &queued); err != nil {
		t.Fatal(err)
	}

	// Queue full → 429.
	code, body = request(t, ts, http.MethodPost, "/api/v1/sweep", submit)
	if code != http.StatusTooManyRequests {
		t.Fatalf("shed submit = %d %s", code, body)
	}
	if got := srv.Jobs().Stats().Shed; got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}

	// Cancel the queued sweep over HTTP, then release the blocker.
	code, body = request(t, ts, http.MethodDelete, "/api/v1/sweep/"+queued.ID, nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"state":"cancelled"`) {
		t.Fatalf("cancel = %d %s", code, body)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := srv.Jobs().Wait(ctx, blocked.ID); err != nil {
		t.Fatal(err)
	}
	final, err := srv.Jobs().Get(queued.ID)
	if err != nil || final.State != JobCancelled {
		t.Fatalf("cancelled job = %+v, %v", final, err)
	}
}

func TestFigureAndTableEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("grid evaluation in -short mode")
	}
	srv, ts := newTestServer(t, Options{})

	code, first := request(t, ts, http.MethodGet, "/api/v1/figures/11", nil)
	if code != http.StatusOK {
		t.Fatalf("figure 11 = %d %s", code, first)
	}
	var fig FigureResponse
	if err := json.Unmarshal(first, &fig); err != nil {
		t.Fatal(err)
	}
	if fig.Figure != 11 || len(fig.Unavailability) != 3 ||
		len(fig.Unavailability[0]) != 3 || len(fig.Unavailability[0][0]) != 10 {
		t.Fatalf("figure shape = %+v", fig)
	}
	// Cached: identical bytes on repeat.
	_, second := request(t, ts, http.MethodGet, "/api/v1/figures/11", nil)
	if !bytes.Equal(first, second) {
		t.Fatal("figure response not byte-stable")
	}
	// The grid shares the composer: repair/loss caches must be populated.
	rh, rm, _, lm := srv.Evaluator().Composer().CacheStats()
	if rm == 0 || lm == 0 || rh == 0 {
		t.Fatalf("composer caches unused: repair %d/%d loss misses %d", rh, rm, lm)
	}

	code, _ = request(t, ts, http.MethodGet, "/api/v1/figures/7", nil)
	if code != http.StatusNotFound {
		t.Fatalf("figure 7 = %d", code)
	}
	code, _ = request(t, ts, http.MethodGet, "/api/v1/figures/xyz", nil)
	if code != http.StatusNotFound {
		t.Fatalf("figure xyz = %d", code)
	}

	code, body := request(t, ts, http.MethodGet, "/api/v1/tables/8", nil)
	if code != http.StatusOK {
		t.Fatalf("table 8 = %d", code)
	}
	var tbl Table8Response
	if err := json.Unmarshal(body, &tbl); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 || tbl.Rows[0].N != 1 || tbl.Rows[5].N != 10 {
		t.Fatalf("table rows = %+v", tbl.Rows)
	}
	// Availability grows with supplier redundancy.
	for i := 1; i < len(tbl.Rows); i++ {
		if tbl.Rows[i].ClassA < tbl.Rows[i-1].ClassA {
			t.Fatalf("table 8 class A not monotone at row %d", i)
		}
	}
}

func TestMetricsAndStatsSurface(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(16)
	srv, ts := newTestServer(t, Options{Registry: reg, Tracer: tracer})
	if _, err := srv.Store().Create("shop", demoSpec(0.999)); err != nil {
		t.Fatal(err)
	}
	request(t, ts, http.MethodPost, "/api/v1/evaluate", []byte(`{"scenario":"shop"}`))
	request(t, ts, http.MethodPost, "/api/v1/evaluate", []byte(`{"scenario":"shop"}`))
	code, _ := request(t, ts, http.MethodGet, "/api/v1/scenarios/ghost", nil)
	if code != http.StatusNotFound {
		t.Fatalf("ghost = %d", code)
	}

	code, body := request(t, ts, http.MethodGet, "/api/v1/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Memo.Hits != 1 || st.Memo.Misses != 1 || st.Scenarios != 1 {
		t.Fatalf("stats = %+v", st)
	}

	code, body = request(t, ts, http.MethodGet, "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`availd_requests_total{code="200",method="POST",route="evaluate"} 2`,
		`availd_requests_total{code="404",method="GET",route="scenario"} 1`,
		"availd_responses_5xx_total 0",
		"availd_memo_hits_total 1",
		"# TYPE availd_request_seconds histogram",
		"availd_scenarios 1",
		"kernel_ctmc_steady_solves_total",
		"kernel_dtmc_analyses_total",
		"kernel_gspn_freeze_hits_total",
		"kernel_faulttree_evals_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The kernel series are exactly the set every binary publishes.
	for _, name := range obs.KernelSeries() {
		if !strings.Contains(text, "\n"+name+" ") {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if n := strings.Count(text, "# TYPE kernel_"); n != len(obs.KernelSeries()) {
		t.Errorf("/metrics has %d kernel_* families, want %d", n, len(obs.KernelSeries()))
	}
	// Request spans landed in the tracer.
	if tracer.Recorded() < 4 {
		t.Fatalf("tracer recorded %d spans, want ≥ 4", tracer.Recorded())
	}
	code, body = request(t, ts, http.MethodGet, "/traces", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"route":"evaluate"`) {
		t.Fatalf("/traces = %d %s", code, body)
	}
}

// TestMemoEvictionUnderServing proves a bounded memo keeps serving
// correctly past its cap.
func TestMemoEvictionUnderServing(t *testing.T) {
	srv, ts := newTestServer(t, Options{MemoLimit: 4})
	if _, err := srv.Store().Create("shop", demoSpec(0.999)); err != nil {
		t.Fatal(err)
	}
	// 9 distinct override values blow through the 4-entry cap.
	for i := 0; i < 9; i++ {
		body := fmt.Appendf(nil, `{"scenario":"shop","overrides":{"WS":0.9%d}}`, i)
		code, resp := request(t, ts, http.MethodPost, "/api/v1/evaluate", body)
		if code != http.StatusOK {
			t.Fatalf("eval %d = %d %s", i, code, resp)
		}
	}
	_, _, evicted, entries := srv.Evaluator().MemoStats()
	if evicted == 0 {
		t.Fatal("no evictions despite MemoLimit 4")
	}
	if entries > 4 {
		t.Fatalf("entries = %d, exceeds limit 4", entries)
	}
	// Evicted keys still evaluate correctly (recompute, same bytes).
	code, resp1 := request(t, ts, http.MethodPost, "/api/v1/evaluate",
		[]byte(`{"scenario":"shop","overrides":{"WS":0.90}}`))
	if code != http.StatusOK {
		t.Fatalf("re-eval = %d %s", code, resp1)
	}
}

// The request counters and latency histograms are looked up once per route
// and status, yet /metrics must show exactly the series the served
// requests created, with the counts they add up to: one request of each
// status class, plus a repeat.
func TestRequestMetricsSeries(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	create, _ := json.Marshal(map[string]any{"name": "shop", "spec": json.RawMessage(demoSpec(0.999))})
	for _, r := range []struct {
		method, path, body string
		code               int
	}{
		{http.MethodGet, "/api/v1/scenarios", "", http.StatusOK},
		{http.MethodHead, "/api/v1/scenarios", "", http.StatusOK},
		{http.MethodPost, "/api/v1/scenarios", string(create), http.StatusCreated},
		{http.MethodPost, "/api/v1/scenarios", string(create), http.StatusConflict},
		{http.MethodGet, "/api/v1/scenarios/ghost", "", http.StatusNotFound},
		{http.MethodDelete, "/api/v1/scenarios/ghost", "", http.StatusNotFound},
		{http.MethodPost, "/api/v1/evaluate", `{"scenario":"shop","overrides":{"WS":0.5}}`, http.StatusOK},
		{http.MethodPost, "/api/v1/evaluate", `{"scenario":"shop","overrides":{"WS":0.5}}`, http.StatusOK},
		{http.MethodPost, "/api/v1/evaluate", `{not json`, http.StatusBadRequest},
		{http.MethodPost, "/api/v1/evaluate", `{}`, http.StatusUnprocessableEntity},
		{http.MethodPost, "/api/v1/evaluate", strings.Repeat(" ", maxBodyBytes+1), http.StatusRequestEntityTooLarge},
		{http.MethodDelete, "/api/v1/scenarios/shop?version=1", "", http.StatusNoContent},
	} {
		var body []byte
		if r.body != "" {
			body = []byte(r.body)
		}
		if code, got := request(t, ts, r.method, r.path, body); code != r.code {
			t.Fatalf("%s %s = %d %s, want %d", r.method, r.path, code, got, r.code)
		}
	}
	_, scrape := request(t, ts, http.MethodGet, "/metrics", nil)
	var got []string
	for _, line := range strings.Split(string(scrape), "\n") {
		if strings.HasPrefix(line, "availd_requests_total") ||
			strings.HasPrefix(line, "availd_request_seconds_count") ||
			strings.HasPrefix(line, "availd_responses_5xx_total") {
			got = append(got, line)
		}
	}
	// Every series the requests above create, and no other.
	want := []string{
		`availd_request_seconds_count{route="evaluate"} 5`,
		`availd_request_seconds_count{route="scenario"} 3`,
		`availd_request_seconds_count{route="scenarios"} 4`,
		`availd_requests_total{code="200",method="GET",route="scenarios"} 1`,
		`availd_requests_total{code="200",method="HEAD",route="scenarios"} 1`,
		`availd_requests_total{code="200",method="POST",route="evaluate"} 2`,
		`availd_requests_total{code="201",method="POST",route="scenarios"} 1`,
		`availd_requests_total{code="204",method="DELETE",route="scenario"} 1`,
		`availd_requests_total{code="400",method="POST",route="evaluate"} 1`,
		`availd_requests_total{code="404",method="DELETE",route="scenario"} 1`,
		`availd_requests_total{code="404",method="GET",route="scenario"} 1`,
		`availd_requests_total{code="409",method="POST",route="scenarios"} 1`,
		`availd_requests_total{code="413",method="POST",route="evaluate"} 1`,
		`availd_requests_total{code="422",method="POST",route="evaluate"} 1`,
		`availd_responses_5xx_total 0`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("request series:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
