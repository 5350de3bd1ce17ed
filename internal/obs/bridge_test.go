package obs

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

func bridgeVisit(id uint64, ok bool) telemetry.VisitTrace {
	cause := telemetry.CauseNone
	svc := ""
	if !ok {
		cause = telemetry.CauseResourceDown
		svc = "WS"
	}
	return telemetry.VisitTrace{
		ID: id, Class: "class A", Scenario: "1: St-Ho-Ex",
		Start: 0, Duration: 0.02, OK: ok, Cause: cause, FailedService: svc,
		Functions: []telemetry.FunctionTrace{{
			Function: "Home", OK: ok, Cause: cause, FailedService: svc, Duration: 0.02,
		}},
	}
}

// TestBridgeFeedsAllSinks installs the bridge on a collector and checks that
// a recorded visit lands in the registry, the tracer and the drift detector.
func TestBridgeFeedsAllSinks(t *testing.T) {
	reg := NewRegistry()
	tracer := NewTracer(8)
	drift, err := NewDriftDetector(DriftConfig{Predicted: 0.75, Window: 100, MinSamples: 10})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBridge(reg, tracer, drift)
	col := telemetry.NewCollector(4)
	col.SetOnRecord(b.OnVisit)

	for i := 0; i < 30; i++ {
		col.RecordVisit(bridgeVisit(uint64(i), i%4 != 0)) // 75% availability
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`ta_visits_total{class="class A"} 30`,
		`ta_visit_failures_total{cause="resource-down",class="class A"} 8`,
		`ta_visit_resource_down_total{class="class A",service="WS"} 8`,
		`ta_function_invocations_total{function="Home"} 30`,
		`ta_function_failures_total{function="Home"} 8`,
		"ta_visit_duration_seconds_count 30",
		`ta_step_latency_seconds_count{function="Home"} 30`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("registry missing %q:\n%s", want, out)
		}
	}
	if got := len(tracer.Traces()); got != 8 {
		t.Errorf("tracer kept %d traces, want 8", got)
	}
	if st := drift.Status(); st.Observations != 30 {
		t.Errorf("drift observations = %d, want 30", st.Observations)
	}

	// The collector's own aggregates are unaffected by the tap.
	s, err := col.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s.Visits != 30 || s.Causes[telemetry.CauseResourceDown] != 8 {
		t.Errorf("collector summary %+v", s)
	}
}

// TestBridgeNilSinks checks that a partially wired bridge skips missing
// components instead of panicking.
func TestBridgeNilSinks(t *testing.T) {
	b := NewBridge(nil, nil, nil)
	b.OnVisit(bridgeVisit(1, true))
}

// TestBridgeConcurrent drives the bridge from parallel recorders under -race.
func TestBridgeConcurrent(t *testing.T) {
	reg := NewRegistry()
	b := NewBridge(reg, NewTracer(16), nil)
	col := telemetry.NewCollector(0)
	col.SetOnRecord(b.OnVisit)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < 500; i++ {
				col.RecordVisit(bridgeVisit(base*500+i, i%2 == 0))
			}
		}(uint64(w))
	}
	wg.Wait()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `ta_visits_total{class="class A"} 2000`; !strings.Contains(sb.String(), want) {
		t.Errorf("missing %q:\n%s", want, sb.String())
	}
}

// referenceBridge is the bridge's metric path without cached instruments:
// every visit looks each of its series up in the registry.
type referenceBridge struct {
	reg           *Registry
	visitDuration *Histogram
}

func newReferenceBridge(reg *Registry) *referenceBridge {
	return &referenceBridge{reg: reg, visitDuration: reg.MustHistogram("ta_visit_duration_seconds",
		"visit virtual wall-clock length, model seconds", 1e-3, 2, 22)}
}

func (b *referenceBridge) OnVisit(tr telemetry.VisitTrace) {
	class := Label{Key: "class", Value: tr.Class}
	b.reg.MustCounter("ta_visits_total", "completed user visits", class).Inc()
	if !tr.OK {
		b.reg.MustCounter("ta_visit_failures_total",
			"failed visits by first cause", class,
			Label{Key: "cause", Value: string(tr.Cause)}).Inc()
		if tr.Cause == telemetry.CauseResourceDown && tr.FailedService != "" {
			b.reg.MustCounter("ta_visit_resource_down_total",
				"structural visit failures by failed service", class,
				Label{Key: "service", Value: tr.FailedService}).Inc()
		}
	}
	b.visitDuration.Observe(tr.Duration)
	for _, fn := range tr.Functions {
		fl := Label{Key: "function", Value: fn.Function}
		b.reg.MustCounter("ta_function_invocations_total",
			"function invocations across all visits", fl).Inc()
		if !fn.OK {
			b.reg.MustCounter("ta_function_failures_total",
				"failed function invocations", fl).Inc()
		}
		h := b.reg.MustHistogram("ta_step_latency_seconds",
			"executed diagram-step latency, model seconds", 1e-3, 2, 22, fl)
		for _, st := range fn.Steps {
			h.Observe(st.Latency)
		}
		if len(fn.Steps) == 0 {
			h.Observe(fn.Duration)
		}
	}
}

// bridgeStream returns n seeded visits over two classes and five functions,
// with frequent failures of both causes and functions with and without
// steps. Latencies are multiples of 2⁻¹⁰ s, so histogram sums are exact in
// any order of observation.
func bridgeStream(seed int64, n int) []telemetry.VisitTrace {
	rng := rand.New(rand.NewSource(seed))
	functions := []string{"Home", "Browse", "Search", "Book", "Pay"}
	services := []string{"WS", "AS", "DS", ""}
	latency := func() float64 { return float64(rng.Intn(1<<12)) / (1 << 10) }
	out := make([]telemetry.VisitTrace, n)
	for i := range out {
		tr := telemetry.VisitTrace{ID: uint64(i), Class: []string{"class A", "class B"}[rng.Intn(2)], Scenario: "s", OK: true}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			fn := telemetry.FunctionTrace{Function: functions[rng.Intn(len(functions))], OK: true}
			for s := rng.Intn(3); s > 0; s-- {
				fn.Steps = append(fn.Steps, telemetry.StepTrace{Latency: latency(), OK: true})
			}
			fn.Duration = latency()
			if rng.Intn(6) == 0 {
				fn.OK = false
				fn.Cause = []telemetry.Cause{telemetry.CauseResourceDown, telemetry.CauseBufferOverflow}[rng.Intn(2)]
				fn.FailedService = services[rng.Intn(len(services))]
				if tr.OK {
					tr.OK, tr.Cause, tr.FailedService = false, fn.Cause, fn.FailedService
				}
			}
			tr.Duration += fn.Duration
			tr.Functions = append(tr.Functions, fn)
		}
		out[i] = tr
	}
	return out
}

func exposition(t *testing.T, reg *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestBridgeExpositionMatchesReference feeds one stream through the bridge
// and through referenceBridge: after every visit, /metrics must render the
// same bytes, so no series appears before its first visit and every count
// and histogram matches.
func TestBridgeExpositionMatchesReference(t *testing.T) {
	got, want := NewRegistry(), NewRegistry()
	b, ref := NewBridge(got, nil, nil), newReferenceBridge(want)
	if g, w := exposition(t, got), exposition(t, want); g != w {
		t.Fatalf("before any visit:\n%s\nreference:\n%s", g, w)
	}
	for i, tr := range bridgeStream(3, 300) {
		b.OnVisit(tr)
		ref.OnVisit(tr)
		if g, w := exposition(t, got), exposition(t, want); g != w {
			t.Fatalf("after visit %d:\n%s\nreference:\n%s", i, g, w)
		}
	}
}

// TestBridgeConcurrentExposition calls OnVisit from several goroutines at
// once (run it under -race) and checks the result against the reference fed
// serially.
func TestBridgeConcurrentExposition(t *testing.T) {
	stream := bridgeStream(5, 2000)
	got, want := NewRegistry(), NewRegistry()
	b, ref := NewBridge(got, nil, nil), newReferenceBridge(want)
	for _, tr := range stream {
		ref.OnVisit(tr)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(stream); i += workers {
				b.OnVisit(stream[i])
			}
		}(w)
	}
	wg.Wait()
	if g, w := exposition(t, got), exposition(t, want); g != w {
		t.Fatalf("concurrent bridge:\n%s\nreference:\n%s", g, w)
	}
}
