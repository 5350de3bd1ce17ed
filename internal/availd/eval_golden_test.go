package availd

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/travelagency"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/eval_golden.json from the current code")

// goldenCase is one request of the evaluation golden and the response it
// must get: the status and the body, or for a sweep job the final state and
// its result or error.
type goldenCase struct {
	Name   string `json:"name"`
	Status int    `json:"status"`
	Body   string `json:"body"`
}

// variantSpec is demoSpec renamed to name, with wsLine spliced over its
// WS service declaration.
func variantSpec(name, wsLine string) []byte {
	spec := string(demoSpec(0.999))
	spec = strings.Replace(spec, `"name": "selftest"`, `"name": "`+name+`"`, 1)
	return []byte(strings.Replace(spec, `{"name": "WS", "availability": 0.999000}`, wsLine, 1))
}

// goldenRequests is the request sequence of the evaluation golden: point,
// what-if and sweep requests on inline and stored specs of both travel
// agency classes and of a spec with a replica group, every override
// validation error, fixed and group availabilities out of range, and a
// spec whose structure does not build. Repeats come after other requests,
// so with a small memo limit they are served after evictions.
func goldenRequests(t *testing.T) (stored map[string][]byte, reqs []struct{ name, path, body string }) {
	t.Helper()
	stored = map[string][]byte{"demo": demoSpec(0.999)}
	inline := map[string]string{}
	for c, class := range map[string]travelagency.UserClass{"A": travelagency.ClassA, "B": travelagency.ClassB} {
		spec, err := travelagency.SpecForClass(travelagency.DefaultParams(), class)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		stored["ta-"+c] = data
		inline[c] = string(data)
	}
	add := func(name, path, body string) {
		reqs = append(reqs, struct{ name, path, body string }{name, path, body})
	}
	eval := func(name, body string) { add(name, "/api/v1/evaluate", body) }
	for _, c := range []string{"A", "B"} {
		sc := `"scenario":"ta-` + c + `"`
		sp := `"spec":` + inline[c]
		eval("point stored "+c, `{`+sc+`}`)
		eval("point inline "+c, `{`+sp+`}`)
		eval("what-if stored "+c+" WS", `{`+sc+`,"overrides":{"WS":0.99}}`)
		eval("what-if inline "+c+" Flight", `{`+sp+`,"overrides":{"Flight":0.95}}`)
		eval("what-if inline "+c+" two", `{`+sp+`,"overrides":{"PS":0.9,"DS":0.999}}`)
		eval("what-if stored "+c+" to 0", `{`+sc+`,"overrides":{"Net":0}}`)
		eval("what-if stored "+c+" to 1", `{`+sc+`,"overrides":{"WS":1}}`)
		eval("what-if stored "+c+" unchanged", `{`+sc+`,"overrides":{"LAN":0.9999}}`)
	}
	demo := `"spec":` + string(demoSpec(0.999))
	eval("point stored demo", `{"scenario":"demo"}`)
	eval("point inline demo", `{`+demo+`}`)
	eval("what-if demo group", `{`+demo+`,"overrides":{"DB":0.97}}`)
	eval("what-if demo group to 1", `{"scenario":"demo","overrides":{"DB":1}}`)
	eval("what-if demo group and fixed", `{"scenario":"demo","overrides":{"DB":0,"WS":0.5}}`)
	eval("unknown override", `{"scenario":"demo","overrides":{"Nope":0.5}}`)
	eval("unknown and out of range", `{"scenario":"demo","overrides":{"Nope":0.5,"AAA":2}}`)
	eval("override above 1", `{"scenario":"ta-A","overrides":{"WS":1.5}}`)
	eval("override below 0", `{`+demo+`,"overrides":{"DB":-0.1}}`)
	bad := `"spec":` + string(variantSpec("bad", `{"name": "WS", "availability": 1.5}`))
	eval("fixed out of range", `{`+bad+`}`)
	eval("fixed out of range, overridden", `{`+bad+`,"overrides":{"WS":0.9}}`)
	eval("fixed out of range, other override", `{`+bad+`,"overrides":{"PS":0.9}}`)
	eval("valid after invalid, same structure", `{"spec":`+string(variantSpec("bad", `{"name": "WS", "availability": 0.9}`))+`}`)
	badGroup := `"spec":` + string(variantSpec("bad-group", `{"name": "WS", "group": {"count": 2, "availability": 1.5}}`))
	eval("group out of range", `{`+badGroup+`}`)
	eval("group out of range, unknown override", `{`+badGroup+`,"overrides":{"Nope":0.5}}`)
	eval("undeclared service", `{"spec":`+strings.Replace(string(demoSpec(0.9)), `"services": ["PS"]`, `"services": ["XS"]`, 1)+`}`)
	eval("malformed spec", `{"spec":{"services":[{"name":"WS"}]}}`)
	eval("name only 1", `{"spec":`+string(variantSpec("one", `{"name": "WS", "availability": 0.98}`))+`}`)
	eval("name only 2", `{"spec":`+string(variantSpec("two", `{"name": "WS", "availability": 0.98}`))+`}`)
	eval("name only 2 what-if", `{"spec":`+string(variantSpec("two", `{"name": "WS", "availability": 0.98}`))+`,"overrides":{"PS":0.5}}`)
	eval("repeat point stored A", `{"scenario":"ta-A"}`)
	eval("repeat what-if inline B", `{"spec":`+inline["B"]+`,"overrides":{"Flight":0.95}}`)
	eval("repeat what-if demo group", `{`+demo+`,"overrides":{"DB":0.97}}`)

	sweep := func(name, body string) { add(name, "/api/v1/sweep", body) }
	sweep("sweep stored A", `{"scenario":"ta-A","service":"WS","from":0.9,"to":1,"points":5}`)
	sweep("sweep inline B", `{"spec":`+inline["B"]+`,"service":"Car","from":0,"to":1,"points":4}`)
	sweep("sweep demo group", `{"scenario":"demo","service":"DB","from":0.5,"to":0.99,"points":3}`)
	sweep("sweep swept out of range", `{`+bad+`,"service":"WS","from":0.9,"to":1,"points":3}`)
	sweep("sweep other out of range", `{`+bad+`,"service":"PS","from":0.9,"to":1,"points":3}`)
	sweep("sweep group out of range", `{`+badGroup+`,"service":"PS","from":0.9,"to":1,"points":3}`)
	sweep("sweep unknown service", `{"scenario":"demo","service":"Nope","from":0.9,"to":1,"points":3}`)
	return stored, reqs
}

// TestEvaluateGolden pins the bytes of point, what-if and sweep responses,
// error texts included, captured from the evaluation path before the
// structure and document caches existed. A memo limit of 3 makes every
// cache evict while the sequence runs.
func TestEvaluateGolden(t *testing.T) {
	srv, ts := newTestServer(t, Options{MemoLimit: 3, JobWorkers: 1})
	stored, reqs := goldenRequests(t)
	for _, name := range []string{"demo", "ta-A", "ta-B"} {
		if _, err := srv.Store().Create(name, stored[name]); err != nil {
			t.Fatal(err)
		}
	}
	var got []goldenCase
	for _, r := range reqs {
		code, body := request(t, ts, http.MethodPost, r.path, []byte(r.body))
		if r.path == "/api/v1/sweep" && code == http.StatusAccepted {
			var job Job
			if err := json.Unmarshal(body, &job); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			job, err := srv.Jobs().Wait(ctx, job.ID)
			cancel()
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			body = []byte(fmt.Sprintf("%s %s%s", job.State, job.Result, job.Error))
		}
		got = append(got, goldenCase{Name: r.name, Status: code, Body: string(body)})
	}

	path := filepath.Join("testdata", "eval_golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s:\n got %d %s\nwant %d %s", want[i].Name, got[i].Status, got[i].Body, want[i].Status, want[i].Body)
		}
	}
	// The golden must exercise both outcomes.
	var ok, failed int
	for _, c := range want {
		if c.Status == http.StatusOK {
			ok++
		} else if c.Status == http.StatusUnprocessableEntity {
			failed++
		}
	}
	if ok < 10 || failed < 5 {
		t.Fatalf("golden has %d OK and %d 422 cases", ok, failed)
	}
}
