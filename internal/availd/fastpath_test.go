package availd

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/travelagency"
)

// taSpec is the class A travel-agency spec document as json.Marshal writes
// it, the inline spec of every what-if benchmark.
func taSpec(t testing.TB) string {
	t.Helper()
	spec, err := travelagency.SpecForClass(travelagency.DefaultParams(), travelagency.ClassA)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// decodeEvaluate is handleEvaluate without the envelope scanner: every body
// is decoded by decodeBody, the reference the scanner path must match.
func (s *Server) decodeEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvalRequest
	if !decodeBody(w, r, maxBodyBytes, &req) {
		return
	}
	d, err := s.resolveDocument(req.Scenario, req.Spec)
	if err != nil {
		writeError(w, err)
		return
	}
	body, err := s.eval.appendEvaluation(nil, d, req.Overrides)
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, http.StatusOK, body)
}

func serve(h http.HandlerFunc, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/api/v1/evaluate", bytes.NewReader(body)))
	return rec
}

// pad returns body with spaces inserted at offset at until it is n bytes
// long.
func pad(body string, at, n int) []byte {
	return []byte(body[:at] + strings.Repeat(" ", n-len(body)) + body[at:])
}

// envelopeSeeds are what-if bodies in the scanner's shape and near it.
func envelopeSeeds(ta string) []string {
	sp := `"spec":` + ta
	name := func(s string) string { return `{` + sp + `,"overrides":{"` + s + `":0.5}}` }
	seeds := []string{
		`{` + sp + `}`,
		`{` + sp + `,"overrides":{"WS":0.5}}`,
		`{"overrides":{"WS":0.5,"DS":0.9},` + sp + `}`,
		`{` + sp + `,"overrides":{}}`,
		`{"scenario":"ta"}`,
		`{"scenario":"ta","overrides":{"WS":0.99}}`,
		`{"scenario":"","overrides":{"WS":0.99}}`,
		`{"scenario":"ghost"}`,
		`{}`,
		`{"overrides":{"WS":0.5}}`,
		// Case-variant and unknown keys.
		`{"Spec":` + ta + `,"overrides":{"WS":0.5}}`,
		`{` + sp + `,"Overrides":{"WS":0.5}}`,
		`{"SCENARIO":"ta"}`,
		`{` + sp + `,"extra":1}`,
		// Duplicate keys.
		`{` + sp + `,` + sp + `}`,
		`{"overrides":{"WS":0.5},` + sp + `,"overrides":{"DS":0.9}}`,
		`{` + sp + `,"overrides":{"WS":0.5,"WS":0.7}}`,
		`{"scenario":"ta",` + sp + `}`,
		// Trailing bytes and whitespace.
		`{` + sp + `}x`,
		`{` + sp + `}{}`,
		`{` + sp + `,}`,
		" \t\r\n{ " + `"spec" : ` + ta + " , \"overrides\" : { \"WS\" : 0.5 } } \n",
		// Escapes and invalid UTF-8 in names.
		name(`W\` + `u0053`),
		name(`W\"S`),
		name("W" + string([]byte{0xff})),
		name("W\tS"),
		`{"scenario":"t\` + `u0061"}`,
		// Numbers.
		`{` + sp + `,"overrides":{"WS":1e400}}`,
		`{` + sp + `,"overrides":{"WS":-0}}`,
		`{` + sp + `,"overrides":{"WS":01}}`,
		`{` + sp + `,"overrides":{"WS":+1}}`,
		`{` + sp + `,"overrides":{"WS":1e-400}}`,
		`{` + sp + `,"overrides":{"WS":.5}}`,
		`{` + sp + `,"overrides":{"WS":5E-1}}`,
		`{` + sp + `,"overrides":{"WS":2}}`,
		// null and nested values.
		`{"spec":null}`,
		`{"scenario":null,` + sp + `}`,
		`{` + sp + `,"overrides":null}`,
		`{` + sp + `,"overrides":{"WS":null}}`,
		`{` + sp + `,"overrides":{"WS":{"a":1}}}`,
		`{"spec":[]}`,
		`{"spec":"x"}`,
		// A spec that misses the document cache, and a broken one.
		`{"spec":` + strings.Replace(ta, "class A", "class Z", 1) + `}`,
		`{"spec":` + ta[:len(ta)-1] + `,}`,
		`{"spec":{"a":"}"}}`,
		invalidSpecBody,
		`{"spec":{"services":[]}}`,
		``,
		`[]`,
		`{"spec":`,
	}
	return seeds
}

// capBodies are what-if bodies at the 1 MiB cap and one byte either side of
// it, padded after the envelope, where the decoder never reads the padding,
// and inside it, where it must; and a valid envelope followed by trailing
// data past the cap.
func capBodies(ta string) [][]byte {
	body := `{"spec":` + ta + `,"overrides":{"WS":0.5}}`
	var out [][]byte
	for _, n := range []int{maxBodyBytes - 1, maxBodyBytes, maxBodyBytes + 1} {
		out = append(out, pad(body, len(body), n), pad(body, len(body)-1, n))
	}
	return append(out, []byte(body+strings.Repeat("x", maxBodyBytes)))
}

// invalidSpecBody carries a spec that fails to resolve: once cached, its
// document entry holds an error.
const invalidSpecBody = `{"spec":{"services":[]},"overrides":{"WS":0.5}}`

// envelopePair is two servers with the same store and warm caches: one
// answers what-ifs through the envelope scanner, the other through
// decodeBody alone.
type envelopePair struct {
	servers   [2]*Server
	fast, ref http.HandlerFunc
}

func newEnvelopePair(tb testing.TB, ta string) *envelopePair {
	tb.Helper()
	p := &envelopePair{}
	for i := range p.servers {
		srv, err := New(Options{})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(srv.Close)
		if _, err := srv.Store().Create("ta", []byte(ta)); err != nil {
			tb.Fatal(err)
		}
		p.servers[i] = srv
	}
	p.fast, p.ref = p.servers[0].handleEvaluate, p.servers[1].decodeEvaluate
	for _, warm := range []string{`{"spec":` + ta + `}`, `{"scenario":"ta"}`, invalidSpecBody} {
		if a, b := serve(p.fast, []byte(warm)), serve(p.ref, []byte(warm)); a.Code != b.Code || a.Code >= 500 {
			tb.Fatalf("warm-up: %d %s / %d %s", a.Code, a.Body, b.Code, b.Body)
		}
	}
	return p
}

// check sends body to both servers: the status, the body (error text
// included) and the cache counters must agree exactly. It returns the
// status.
func (p *envelopePair) check(t *testing.T, body []byte) int {
	t.Helper()
	got, want := serve(p.fast, body), serve(p.ref, body)
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("body %.200q:\nscanner %d %.300s\ndecoder %d %.300s", body, got.Code, got.Body, want.Code, want.Body)
	}
	m1, s1, d1 := p.servers[0].eval.CacheStats()
	m2, s2, d2 := p.servers[1].eval.CacheStats()
	if m1 != m2 || s1 != s2 || d1 != d2 {
		t.Fatalf("body %.200q: cache stats %v %v %v, decoder %v %v %v", body, m1, s1, d1, m2, s2, d2)
	}
	return got.Code
}

// FuzzEvalEnvelope sends each body to a server answering through the
// envelope scanner and to one answering through decodeBody alone (see
// envelopePair.check).
func FuzzEvalEnvelope(f *testing.F) {
	ta := taSpec(f)
	for _, seed := range envelopeSeeds(ta) {
		f.Add([]byte(seed))
	}
	p := newEnvelopePair(f, ta)
	f.Fuzz(func(t *testing.T, body []byte) { p.check(t, body) })
}

// Bodies at and around the 1 MiB cap get the same answers through the
// scanner path as through decodeBody: 413 where the decoder reads past the
// cap, 200 where the envelope ends before it.
func TestEvalEnvelopeAtBodyCap(t *testing.T) {
	ta := taSpec(t)
	p := newEnvelopePair(t, ta)
	codes := map[int]int{}
	for _, body := range capBodies(ta) {
		codes[p.check(t, body)]++
	}
	if codes[http.StatusOK] != 6 || codes[http.StatusRequestEntityTooLarge] != 1 {
		t.Fatalf("status counts %v, want six 200 and one 413", codes)
	}
}

// The scanner serves a what-if on a cached inline spec without decoding
// it, and leaves the first request of a document to decodeBody.
func TestEvalEnvelopeTakesFastPathOnCacheHit(t *testing.T) {
	ta := taSpec(t)
	var req EvalRequest
	body := []byte(`{"spec":` + ta + `,"overrides":{"WS":0.5,"DS":0.25}}`)
	if !scanEvalRequest(body, &req) {
		t.Fatal("scanner declined a what-if body")
	}
	if string(req.Spec) != ta || len(req.Overrides) != 2 || req.Overrides["WS"] != 0.5 || req.Overrides["DS"] != 0.25 {
		t.Fatalf("scanned %+v", req)
	}
	srv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, _, ok := srv.eval.cachedDocument(req.Spec); ok {
		t.Fatal("cold document cache hit")
	}
	if rec := serve(srv.handleEvaluate, body); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if d, err, ok := srv.eval.cachedDocument(req.Spec); !ok || err != nil || d == nil {
		t.Fatalf("warm document cache: %v %v %v", d, err, ok)
	}
}

// An inline spec whose diagram has three rows summing to 0.5 gets the same
// 422 body on every request, each one building the spec afresh (the
// documents differ in whitespace only).
func TestEvaluateInvalidRowsDeterministic(t *testing.T) {
	const spec = `{"name":"rows","services":[{"name":"S","availability":0.99}],
	  "functions":[{"name":"F",
	    "steps":[{"name":"A","services":["S"]},{"name":"B","services":["S"]},{"name":"C","services":["S"]}],
	    "transitions":[
	      {"from":"Begin","to":"A","probability":0.5},{"from":"Begin","to":"B","probability":0.25},
	      {"from":"Begin","to":"C","probability":0.25},
	      {"from":"A","to":"B","probability":0.3},{"from":"A","to":"C","probability":0.05},{"from":"A","to":"End","probability":0.15},
	      {"from":"B","to":"A","probability":0.3},{"from":"B","to":"C","probability":0.05},{"from":"B","to":"End","probability":0.15},
	      {"from":"C","to":"A","probability":0.3},{"from":"C","to":"B","probability":0.05},{"from":"C","to":"End","probability":0.15}]}],
	  "scenarios":[{"name":"all","functions":["F"],"probability":1}]}`
	_, ts := newTestServer(t, Options{})
	var first []byte
	for i := 0; i < 100; i++ {
		body := `{"spec":` + strings.Repeat(" ", i) + spec + `}`
		code, got := request(t, ts, http.MethodPost, "/api/v1/evaluate", []byte(body))
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("request %d: status %d: %s", i, code, got)
		}
		if first == nil {
			first = got
			if !strings.Contains(string(got), `out of \"A\"`) {
				t.Fatalf("422 body %s does not name row A", got)
			}
		} else if !bytes.Equal(got, first) {
			t.Fatalf("request %d: 422 body %s, first was %s", i, got, first)
		}
	}
}

// marshalReport is the reflective rendering the appender replaced: the
// reference FuzzRenderReport compares it against.
func marshalReport(name string, rep *hierarchy.Report) ([]byte, error) {
	resp := EvalResponse{
		Model:              name,
		Services:           rep.Services,
		Functions:          rep.Functions,
		Scenarios:          make([]ScenarioAvailability, 0, len(rep.Scenarios)),
		UserAvailability:   rep.UserAvailability,
		UserUnavailability: rep.UserUnavailability(),
	}
	for _, sc := range rep.Scenarios {
		resp.Scenarios = append(resp.Scenarios, ScenarioAvailability{
			Name:         sc.Name,
			Probability:  sc.Probability,
			Availability: sc.Availability,
		})
	}
	return json.Marshal(resp)
}

// FuzzRenderReport checks the appending renderer against json.Marshal of
// the same EvalResponse, bytes and errors alike, and the what-if tail
// against json.Marshal of its two fields.
func FuzzRenderReport(f *testing.F) {
	lineSep, paraSep := string(rune(0x2028)), string(rune(0x2029))
	names := []string{"", "WS", "<b>&amp;</b>", "a" + lineSep + "b" + paraSep, "bad" + string([]byte{0xff, 0xfe}),
		"ctl\b\f\n\r\t\x00\x1f\x7f", `q"\`, "h" + string([]byte{0xe2, 0x80}), "é✓"}
	values := []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 1e21, 1 - 1e-16,
		0.999995587, 1e20, 123456789, -1e-7, math.NaN(), math.Inf(1)}
	for i, v := range values {
		n := names[i%len(names)]
		f.Add(n, names[(i+1)%len(names)], names[(i+2)%len(names)], v, values[(i+1)%len(values)], values[(i+5)%len(values)])
	}
	f.Fuzz(func(t *testing.T, name, svc, fn string, a, b, c float64) {
		rep := &hierarchy.Report{
			Services:  map[string]float64{svc: a, svc + "2": b, "WS": c},
			Functions: map[string]float64{fn: c},
			Scenarios: []hierarchy.ScenarioResult{
				{Name: name, Probability: a, Availability: b},
				{Name: fn, Probability: c, Availability: a},
			},
			UserAvailability: b,
		}
		if fn == "" {
			rep.Functions = nil
		}
		if svc == "" {
			rep.Scenarios = nil
		}
		check := func(what string, got []byte, gotErr error, want []byte, wantErr error) {
			t.Helper()
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: error %v, json.Marshal %v", what, gotErr, wantErr)
			}
			if gotErr == nil && !bytes.Equal(got, want) {
				t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
			}
		}
		got, gotErr := appendReport([]byte("prefix"), name, rep)
		if gotErr == nil {
			if !bytes.HasPrefix(got, []byte("prefix")) {
				t.Fatalf("appendReport dropped dst: %s", got)
			}
			got = got[len("prefix"):]
		}
		want, wantErr := marshalReport(name, rep)
		check("report", got, gotErr, want, wantErr)

		tail, gotErr := appendWhatIfTail([]byte("{"), a, b)
		want, wantErr = json.Marshal(struct {
			Baseline float64 `json:"baselineUserAvailability"`
			Delta    float64 `json:"delta"`
		}{a, b})
		if gotErr == nil {
			tail = append([]byte("{"), tail[2:]...) // drop the spliced comma
		}
		check("what-if tail", tail, gotErr, want, wantErr)
	})
}

// FuzzHandlers sends arbitrary bytes as the body of every /api/v1 route
// through Server.Handler: no route may answer 5xx or panic.
func FuzzHandlers(f *testing.F) {
	ta := taSpec(f)
	for _, seed := range envelopeSeeds(ta) {
		f.Add([]byte(seed))
	}
	demo := string(demoSpec(0.99))
	for _, seed := range []string{
		`{"name":"x","spec":` + demo + `}`,
		`{"version":1,"spec":` + demo + `}`,
		`{"scenario":"ta","service":"WS","from":0.9,"to":1,"points":3}`,
		`{"spec":` + demo + `,"service":"DB","from":0,"to":1,"points":2}`,
		`{"scenario":"ta","service":"WS","from":1,"to":0,"points":1e9}`,
		`{"scenario":"ta","spans":[{"trace":1,"id":1,"level":"visit","name":"visit","duration":1,"ok":true,"attrs":{"class":"A"}}]}`,
		`{"scenario":"ta","spans":[],"z":-1,"min_samples":-5,"clusters":1000000}`,
	} {
		f.Add([]byte(seed))
	}
	srv, err := New(Options{JobWorkers: 1, QueueCapacity: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	if _, err := srv.Store().Create("ta", []byte(ta)); err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	routes := []struct{ method, path string }{
		{http.MethodGet, "/api/v1/scenarios"},
		{http.MethodPost, "/api/v1/scenarios"},
		{http.MethodGet, "/api/v1/scenarios/ta"},
		{http.MethodPut, "/api/v1/scenarios/x"},
		{http.MethodDelete, "/api/v1/scenarios/x"},
		{http.MethodPost, "/api/v1/evaluate"},
		{http.MethodPost, "/api/v1/drift"},
		{http.MethodPost, "/api/v1/sweep"},
		{http.MethodGet, "/api/v1/sweep"},
		{http.MethodGet, "/api/v1/sweep/1"},
		{http.MethodDelete, "/api/v1/sweep/1"},
		{http.MethodGet, "/api/v1/figures/11"},
		{http.MethodGet, "/api/v1/tables/8"},
		{http.MethodGet, "/api/v1/stats"},
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, rt := range routes {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(rt.method, rt.path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("%s %s with body %.200q: %d %.300s", rt.method, rt.path, body, rec.Code, rec.Body)
			}
		}
	})
}
