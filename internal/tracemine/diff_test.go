package tracemine

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/modelspec"
	"repro/internal/obs"
)

// fixtureSpec matches the mineFixture population exactly: 60% Home-only,
// 40% Home+Browse, a two-step Browse diagram and two services whose declared
// availabilities equal the fixture's empirical ones.
func fixtureSpec() *modelspec.Spec {
	ws, ds := 1.0, 0.75
	return &modelspec.Spec{
		Name: "fixture",
		Services: []modelspec.ServiceSpec{
			{Name: "WS", Availability: &ws},
			{Name: "DS", Availability: &ds},
		},
		Functions: []modelspec.FunctionSpec{
			{
				Name:  "Home",
				Steps: []modelspec.StepSpec{{Name: "serve-home", Services: []string{"WS"}}},
				Transitions: []modelspec.TransitionSpec{
					{From: "Begin", To: "serve-home"},
					{From: "serve-home", To: "End"},
				},
			},
			{
				Name: "Browse",
				Steps: []modelspec.StepSpec{
					{Name: "render", Services: []string{"WS"}},
					{Name: "query", Services: []string{"DS"}},
				},
				Transitions: []modelspec.TransitionSpec{
					{From: "Begin", To: "render"},
					{From: "render", To: "query"},
					{From: "query", To: "End"},
				},
			},
		},
		Scenarios: []modelspec.ScenarioSpec{
			{Name: "home", Functions: []string{"Home"}, Probability: 0.6},
			{Name: "browse", Functions: []string{"Home", "Browse"}, Probability: 0.4},
		},
	}
}

func TestDiffConsistent(t *testing.T) {
	d := mineFixture(t)
	rep, err := Diff(d, map[string]*modelspec.Spec{"class A": fixtureSpec()}, DiffOptions{MinSamples: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictConsistent {
		t.Fatalf("verdict = %s, drift: %v", rep.Verdict, rep.Drift)
	}
	if rep.Drifted != 0 || rep.Checked == 0 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Z != 3 || rep.MinSamples != 20 {
		t.Errorf("options echoed as z=%v min=%d", rep.Z, rep.MinSamples)
	}
}

// TestDiffSwappedScenario: swapping the two scenario probabilities in the
// spec must flip the verdict and name the offending scenario edges.
func TestDiffSwappedScenario(t *testing.T) {
	d := mineFixture(t)
	spec := fixtureSpec()
	spec.Scenarios[0].Probability, spec.Scenarios[1].Probability =
		spec.Scenarios[1].Probability, spec.Scenarios[0].Probability
	rep, err := Diff(d, map[string]*modelspec.Spec{"class A": spec}, DiffOptions{MinSamples: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictDrifted {
		t.Fatal("swapped scenario probabilities went unnoticed")
	}
	var named bool
	for _, e := range rep.Drift {
		if e.Kind == "scenario" && strings.Contains(e.Name, "Home") && e.Status == StatusDrift {
			named = true
		}
	}
	if !named {
		t.Errorf("drift edges do not name the scenario: %v", rep.Drift)
	}
}

// TestDiffSwappedBranch: a branch-probability perturbation inside one
// diagram is caught and attributed to that function's edge.
func TestDiffSwappedBranch(t *testing.T) {
	d := mineFixture(t)
	spec := fixtureSpec()
	// Spec now claims Browse renders then exits with p=0.5 each way.
	spec.Functions[1].Transitions = []modelspec.TransitionSpec{
		{From: "Begin", To: "render"},
		{From: "render", To: "query", Probability: 0.5},
		{From: "render", To: "End", Probability: 0.5},
		{From: "query", To: "End"},
	}
	rep, err := Diff(d, map[string]*modelspec.Spec{"class A": spec}, DiffOptions{MinSamples: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictDrifted {
		t.Fatal("branch perturbation went unnoticed")
	}
	var named bool
	for _, e := range rep.Drift {
		if e.Kind == "branch" && e.Function == "Browse" && e.From == "render" {
			named = true
			if s := e.String(); !strings.Contains(s, "Browse: render→") {
				t.Errorf("edge renders as %q", s)
			}
		}
	}
	if !named {
		t.Errorf("drift edges do not name the branch: %v", rep.Drift)
	}
}

// TestDiffStructural: extra scenarios/services and availability drift.
func TestDiffStructural(t *testing.T) {
	d := mineFixture(t)
	spec := fixtureSpec()
	spec.Services = spec.Services[:1] // DS no longer specified
	a := 0.999
	spec.Services[0].Availability = &a // WS availability now wrong (observed 1.0 over 140 calls... within band?)
	rep, err := Diff(d, map[string]*modelspec.Spec{"": spec}, DiffOptions{MinSamples: 20})
	if err != nil {
		t.Fatal(err)
	}
	var sawExtra bool
	for _, e := range rep.Edges {
		if e.Kind == "service" && e.Name == "DS" && e.Status == StatusExtra {
			sawExtra = true
		}
	}
	if !sawExtra {
		t.Errorf("unspecified DS not reported extra: %+v", rep.Edges)
	}
	if rep.Verdict != VerdictDrifted {
		t.Error("extra service did not drift the verdict")
	}
}

// TestDiffInsufficient: below the evidence threshold nothing is judged and
// the verdict stays consistent.
func TestDiffInsufficient(t *testing.T) {
	visits := []Visit{homeVisit("class A")}
	d := mine(visits, FoldStats{}, Options{})
	rep, err := Diff(d, map[string]*modelspec.Spec{"": fixtureSpec()}, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictConsistent || rep.Insufficient == 0 || rep.Drifted != 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestDiffErrors(t *testing.T) {
	if _, err := Diff(nil, map[string]*modelspec.Spec{"": fixtureSpec()}, DiffOptions{}); err == nil {
		t.Error("nil discovery accepted")
	}
	if _, err := Diff(&Discovery{}, nil, DiffOptions{}); err == nil {
		t.Error("empty spec set accepted")
	}
}

// fixtureTraces renders the mineFixture population as span traces so the
// endpoint and render paths exercise the full pipeline.
func fixtureTraces() []obs.Trace {
	var traces []obs.Trace
	id := uint64(1)
	add := func(v Visit) {
		tr := obs.Trace{}
		next := 1
		emit := func(sp obs.Span) int {
			sp.Trace = id
			sp.ID = next
			next++
			tr.Spans = append(tr.Spans, sp)
			return sp.ID
		}
		root := emit(obs.Span{Level: obs.LevelVisit, Name: v.Scenario, OK: v.OK, Cause: v.Cause,
			Attrs: map[string]string{"class": v.Class, "scenario": v.Scenario}})
		for _, fn := range v.Functions {
			fnID := emit(obs.Span{Parent: root, Level: obs.LevelFunction, Name: fn.Name, OK: fn.OK, Cause: fn.Cause})
			for _, st := range fn.Steps {
				stID := emit(obs.Span{Parent: fnID, Level: obs.LevelStep, Name: st.Name, OK: st.OK, Cause: st.Cause})
				for _, res := range st.Resources {
					emit(obs.Span{Parent: stID, Level: obs.LevelResource, Name: res.Service, OK: res.OK, Cause: res.Cause})
				}
			}
		}
		traces = append(traces, tr)
		id++
	}
	for i := 0; i < 60; i++ {
		add(homeVisit("class A"))
	}
	for i := 0; i < 40; i++ {
		add(browseVisit("class A", i < 30))
	}
	return traces
}

func TestEndpoint(t *testing.T) {
	tracer := obs.NewTracer(128)
	for _, tr := range fixtureTraces() {
		tracer.Record(tr)
	}
	ep := NewEndpoint(tracer, map[string]*modelspec.Spec{"class A": fixtureSpec()},
		Options{}, DiffOptions{MinSamples: 20})
	reg := obs.NewRegistry()
	srv := obs.NewServer(reg, tracer)
	if err := ep.Install(srv, reg); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	mux := srv.Handler()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/discovered", nil))
	if rr.Code != 200 {
		t.Fatalf("/discovered = %d: %s", rr.Code, rr.Body)
	}
	var d Discovery
	if err := json.Unmarshal(rr.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Visits != 100 || d.Profiles["class A"] == nil {
		t.Errorf("discovered %d visits, profiles %v", d.Visits, d.Profiles)
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/modeldrift", nil))
	if rr.Code != 200 {
		t.Fatalf("/modeldrift = %d: %s", rr.Code, rr.Body)
	}
	var dr DriftResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Verdict != VerdictConsistent || dr.Visits != 100 {
		t.Errorf("drift response = %+v", dr)
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/modeldrift?limit=nope", nil))
	if rr.Code != 400 {
		t.Errorf("bad limit = %d", rr.Code)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"tracemine_spans_parsed_total",
		"tracemine_traces_folded_total",
		"tracemine_drift_edges 0",
		"tracemine_verdict 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestRender(t *testing.T) {
	d := mineFixture(t)
	var sb strings.Builder
	if err := WriteDiscovery(&sb, d); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"class A", "Browse", "DS", "resource-down"} {
		if !strings.Contains(out, want) {
			t.Errorf("discovery rendering missing %q:\n%s", want, out)
		}
	}

	rep, err := Diff(d, map[string]*modelspec.Spec{"class A": fixtureSpec()}, DiffOptions{MinSamples: 20})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := WriteReport(&sb, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "verdict: consistent") {
		t.Errorf("report rendering:\n%s", sb.String())
	}
}

// The spec's implied transition rows are normalized by a sum taken in a
// fixed order: 0.1 + 0.2 + 0.3 rounds differently in different orders, and
// the specified probabilities must not change from run to run.
func TestTransitionsFromScenariosDeterministic(t *testing.T) {
	scenarios := []modelspec.ScenarioSpec{
		{Name: "a", Functions: []string{"A"}, Probability: 0.1},
		{Name: "b", Functions: []string{"B"}, Probability: 0.2},
		{Name: "c", Functions: []string{"C"}, Probability: 0.3},
	}
	want := transitionsFromScenarios(scenarios)["Start"]
	for i := 0; i < 100; i++ {
		got := transitionsFromScenarios(scenarios)["Start"]
		for to, p := range want {
			if got[to] != p {
				t.Fatalf("call %d: Start→%s = %v, want %v", i, to, got[to], p)
			}
		}
	}
}
