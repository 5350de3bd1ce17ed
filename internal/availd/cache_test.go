package availd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/modelspec"
	"repro/internal/travelagency"
)

// structureVariant is demoSpec(0.999) named name, with the Book diagram's
// pay branch taken with probability q: each q is a distinct structure with
// the same name and availability vector.
func structureVariant(t *testing.T, name string, q float64) *modelspec.Spec {
	t.Helper()
	doc := strings.Replace(string(demoSpec(0.999)), `"name": "selftest"`, `"name": "`+name+`"`, 1)
	doc = strings.Replace(doc, `{"from": "reserve", "to": "pay", "probability": 0.9},
	        {"from": "reserve", "to": "End", "probability": 0.1}`,
		fmt.Sprintf(`{"from": "reserve", "to": "pay", "probability": %v},
	        {"from": "reserve", "to": "End", "probability": %v}`, q, 1-q), 1)
	spec, err := modelspec.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestInvalidSpecDoesNotPoisonStructure evaluates a spec with an out of
// range fixed availability first: it must fail with the error Build
// reports, and a valid spec of the same structure evaluated next must
// succeed on the same cached structure.
func TestInvalidSpecDoesNotPoisonStructure(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	bad := fmt.Appendf(nil, `{"spec":%s}`, variantSpec("x", `{"name": "WS", "availability": 1.5}`))
	code, body := request(t, ts, http.MethodPost, "/api/v1/evaluate", bad)
	want := `{"error":"availd: invalid request: hierarchy: invalid model: service \"WS\" availability 1.5"}`
	if code != http.StatusUnprocessableEntity || string(body) != want {
		t.Fatalf("invalid spec = %d %s, want 422 %s", code, body, want)
	}
	good := fmt.Appendf(nil, `{"spec":%s}`, variantSpec("x", `{"name": "WS", "availability": 0.9}`))
	code, body = request(t, ts, http.MethodPost, "/api/v1/evaluate", good)
	if code != http.StatusOK {
		t.Fatalf("valid spec after invalid = %d %s", code, body)
	}
	ref, err := modelspec.Evaluate(variantSpec("x", `{"name": "WS", "availability": 0.9}`))
	if err != nil {
		t.Fatal(err)
	}
	var resp EvalResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.UserAvailability != ref.UserAvailability {
		t.Fatalf("user availability %v, want %v", resp.UserAvailability, ref.UserAvailability)
	}
	if _, st, _ := srv.Evaluator().CacheStats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("structure cache %+v, want one structure built and reused", st)
	}
}

// TestStructureIDsNeverReused churns a structure cache of two entries with
// three structures that share their name and availability vector, so every
// structure is evicted and rebuilt many times while the response memo
// still holds bodies of earlier builds. Each response must be its own
// structure's.
func TestStructureIDsNeverReused(t *testing.T) {
	qs := []float64{0.9, 0.5, 0.2}
	want := make([][]byte, len(qs))
	for i, q := range qs {
		body, err := NewEvaluator(1, 0).Evaluate(structureVariant(t, "same", q), nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = body
	}
	if bytes.Equal(want[0], want[1]) || bytes.Equal(want[1], want[2]) {
		t.Fatal("structure variants evaluate alike; the test cannot tell them apart")
	}
	e := NewEvaluator(1, 2)
	for k := 0; k < 30; k++ {
		i := (k*k + k/3) % len(qs)
		got, err := e.Evaluate(structureVariant(t, "same", qs[i]), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("request %d (q=%v) was served another structure's body:\n got %s\nwant %s", k, qs[i], got, want[i])
		}
	}
	if _, st, _ := e.CacheStats(); st.Evicted == 0 {
		t.Fatal("the structure cache never evicted")
	}
}

// TestNameOnlyVariantsShareStructure: two specs that differ only by name
// build one model, and each response carries its own name.
func TestNameOnlyVariantsShareStructure(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	for _, name := range []string{"one", "two", "one"} {
		body := fmt.Appendf(nil, `{"spec":%s,"overrides":{"PS":0.5}}`, variantSpec(name, `{"name": "WS", "availability": 0.98}`))
		code, resp := request(t, ts, http.MethodPost, "/api/v1/evaluate", body)
		if code != http.StatusOK {
			t.Fatalf("%s = %d %s", name, code, resp)
		}
		var r EvalResponse
		if err := json.Unmarshal(resp, &r); err != nil {
			t.Fatal(err)
		}
		if r.Model != name {
			t.Fatalf("response for %q names %q", name, r.Model)
		}
	}
	memo, st, docs := srv.Evaluator().CacheStats()
	if st.Misses != 1 {
		t.Fatalf("structure cache %+v, want one model for both names", st)
	}
	if docs.Misses != 2 || docs.Hits != 1 {
		t.Fatalf("document cache %+v, want two documents, one reused", docs)
	}
	// One response per (name, vector): two names × (modified, baseline).
	if memo.Misses != 4 {
		t.Fatalf("memo %+v, want 4 distinct responses", memo)
	}
}

// TestConcurrentWhatIfsOnOneStructure is the -race gate for the shared
// compiled model: concurrent what-ifs with different overrides on one
// structure must each match a serial evaluation on a fresh server.
func TestConcurrentWhatIfsOnOneStructure(t *testing.T) {
	var bodies [][]byte
	for i := 0; i < 8; i++ {
		bodies = append(bodies,
			fmt.Appendf(nil, `{"scenario":"shop","overrides":{"WS":0.9%d}}`, i),
			fmt.Appendf(nil, `{"spec":%s,"overrides":{"DB":0.8%d,"PS":0.7}}`, demoSpec(0.999), i))
	}
	serve := func() (*Server, *httptest.Server) {
		srv, ts := newTestServer(t, Options{})
		if _, err := srv.Store().Create("shop", demoSpec(0.999)); err != nil {
			t.Fatal(err)
		}
		return srv, ts
	}
	_, refTS := serve()
	want := make([][]byte, len(bodies))
	for i, b := range bodies {
		code, resp := request(t, refTS, http.MethodPost, "/api/v1/evaluate", b)
		if code != http.StatusOK {
			t.Fatalf("reference %d = %d %s", i, code, resp)
		}
		want[i] = resp
	}
	srv, ts := serve()
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(bodies))
	for r := 0; r < rounds; r++ {
		for i := range bodies {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				code, resp, err := do(ts.Client(), http.MethodPost, ts.URL+"/api/v1/evaluate", bodies[i])
				switch {
				case err != nil:
					errs <- err
				case code != http.StatusOK || !bytes.Equal(resp, want[i]):
					errs <- fmt.Errorf("request %d = %d %s, want %s", i, code, resp, want[i])
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, st, _ := srv.Evaluator().CacheStats(); st.Misses != 1 {
		t.Fatalf("structure cache %+v, want one shared structure", st)
	}
}

// TestRequestBodyLimits: every route that decodes a body answers 413 above
// its limit, and a travel-agency-sized body still evaluates.
func TestRequestBodyLimits(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	if _, err := srv.Store().Create("shop", demoSpec(0.999)); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	serve := func(method, path string, body io.Reader) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, body))
		return rec.Code, rec.Body.String()
	}
	// A JSON body padded with whitespace to limit+1 bytes: well formed, so
	// only the size can reject it.
	padded := func(prefix string, limit int) io.Reader {
		return io.MultiReader(strings.NewReader(prefix),
			io.LimitReader(spaces{}, int64(limit+1-len(prefix))))
	}
	for _, route := range []struct {
		method, path string
		limit        int
	}{
		{http.MethodPost, "/api/v1/evaluate", maxBodyBytes},
		{http.MethodPost, "/api/v1/scenarios", maxBodyBytes},
		{http.MethodPut, "/api/v1/scenarios/shop", maxBodyBytes},
		{http.MethodPost, "/api/v1/sweep", maxBodyBytes},
		{http.MethodPost, "/api/v1/drift", maxDriftBodyBytes},
	} {
		code, body := serve(route.method, route.path, padded(`{"scenario":"shop"`, route.limit))
		want := fmt.Sprintf(`{"error":"request body exceeds %d bytes"}`, route.limit)
		if code != http.StatusRequestEntityTooLarge || body != want {
			t.Errorf("%s %s over the limit = %d %s, want 413 %s", route.method, route.path, code, body, want)
		}
	}
	ta, err := travelagency.SpecForClass(travelagency.DefaultParams(), travelagency.ClassA)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(ta)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Appendf(nil, `{"spec":%s,"overrides":{"WS":0.95}}`, spec)
	if code, resp := serve(http.MethodPost, "/api/v1/evaluate", bytes.NewReader(body)); code != http.StatusOK {
		t.Fatalf("%d-byte travel-agency body = %d %s", len(body), code, resp)
	}
}

// spaces is an endless stream of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestCacheStatsSurface: /api/v1/stats and /metrics report the structure
// and document caches beside the response memo.
func TestCacheStatsSurface(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	if _, err := srv.Store().Create("shop", demoSpec(0.999)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		request(t, ts, http.MethodPost, "/api/v1/evaluate", []byte(`{"scenario":"shop","overrides":{"WS":0.5}}`))
	}
	code, body := request(t, ts, http.MethodGet, "/api/v1/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	want := StatsResponse{
		Scenarios:  1,
		Memo:       CacheStats{Hits: 4, Misses: 2, Entries: 2},
		Structures: CacheStats{Misses: 1, Entries: 1},
		Documents:  CacheStats{Hits: 2, Misses: 1, Entries: 1},
	}
	if st.Scenarios != want.Scenarios || st.Memo != want.Memo || st.Structures != want.Structures || st.Documents != want.Documents {
		t.Fatalf("stats = %s", body)
	}
	_, body = request(t, ts, http.MethodGet, "/metrics", nil)
	for _, line := range []string{
		"availd_memo_hits_total 4",
		"availd_memo_misses_total 2",
		"availd_structure_cache_hits_total 0",
		"availd_structure_cache_misses_total 1",
		"availd_structure_cache_evicted_total 0",
		"availd_structure_cache_entries 1",
		"availd_document_cache_hits_total 2",
		"availd_document_cache_misses_total 1",
		"availd_document_cache_evicted_total 0",
		"availd_document_cache_entries 1",
	} {
		if !strings.Contains(string(body), line+"\n") {
			t.Errorf("/metrics missing %q", line)
		}
	}
}
