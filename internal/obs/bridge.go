package obs

import (
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Bridge fans one telemetry visit stream out to the observability plane:
// metrics registry series, hierarchical spans and the drift detector. Install
// it with telemetry.Collector.SetOnRecord(bridge.OnVisit); every component is
// optional (nil skips that sink). OnVisit is safe for concurrent use.
type Bridge struct {
	reg    *Registry
	tracer *Tracer
	drift  *DriftDetector

	visitDuration *Histogram
	// Per-class, per-failure and per-function instruments, each looked up in
	// the registry once, on the first visit that needs it, so a series
	// appears only after its first visit.
	visits       sync.Map // class → *Counter
	failures     sync.Map // [2]string{class, cause} → *Counter
	resourceDown sync.Map // [2]string{class, service} → *Counter
	functions    sync.Map // function → *functionMetrics
}

// functionMetrics are one function's bridge instruments.
type functionMetrics struct {
	invocations *Counter
	latency     *Histogram
	failures    atomic.Pointer[Counter] // set on the function's first failure
}

// NewBridge wires a bridge over the given sinks.
func NewBridge(reg *Registry, tracer *Tracer, drift *DriftDetector) *Bridge {
	b := &Bridge{reg: reg, tracer: tracer, drift: drift}
	if reg != nil {
		// 1 ms to ~17 model minutes, matching the collector's step layout.
		b.visitDuration = reg.MustHistogram("ta_visit_duration_seconds",
			"visit virtual wall-clock length, model seconds", 1e-3, 2, 22)
	}
	return b
}

// OnVisit folds one finished visit into every configured sink.
func (b *Bridge) OnVisit(tr telemetry.VisitTrace) {
	if b.reg != nil {
		b.recordMetrics(tr)
	}
	if b.tracer != nil {
		b.tracer.RecordVisit(tr)
	}
	if b.drift != nil {
		b.drift.Observe(tr.OK)
	}
}

func (b *Bridge) recordMetrics(tr telemetry.VisitTrace) {
	class := Label{Key: "class", Value: tr.Class}
	visits, ok := b.visits.Load(tr.Class)
	if !ok {
		visits, _ = b.visits.LoadOrStore(tr.Class,
			b.reg.MustCounter("ta_visits_total", "completed user visits", class))
	}
	visits.(*Counter).Inc()
	if !tr.OK {
		key := [2]string{tr.Class, string(tr.Cause)}
		failures, ok := b.failures.Load(key)
		if !ok {
			failures, _ = b.failures.LoadOrStore(key, b.reg.MustCounter("ta_visit_failures_total",
				"failed visits by first cause", class,
				Label{Key: "cause", Value: string(tr.Cause)}))
		}
		failures.(*Counter).Inc()
		if tr.Cause == telemetry.CauseResourceDown && tr.FailedService != "" {
			key := [2]string{tr.Class, tr.FailedService}
			down, ok := b.resourceDown.Load(key)
			if !ok {
				down, _ = b.resourceDown.LoadOrStore(key, b.reg.MustCounter("ta_visit_resource_down_total",
					"structural visit failures by failed service", class,
					Label{Key: "service", Value: tr.FailedService}))
			}
			down.(*Counter).Inc()
		}
	}
	b.visitDuration.Observe(tr.Duration)
	for _, fn := range tr.Functions {
		m := b.functionMetrics(fn.Function)
		m.invocations.Inc()
		if !fn.OK {
			failures := m.failures.Load()
			if failures == nil {
				failures = b.reg.MustCounter("ta_function_failures_total",
					"failed function invocations", Label{Key: "function", Value: fn.Function})
				m.failures.Store(failures)
			}
			failures.Inc()
		}
		for _, st := range fn.Steps {
			m.latency.Observe(st.Latency)
		}
		if len(fn.Steps) == 0 {
			// Step tracing disabled: one observation per function, mirroring
			// the collector's fallback.
			m.latency.Observe(fn.Duration)
		}
	}
}

// functionMetrics returns fn's instruments, registering its invocation
// counter and step-latency histogram on its first invocation.
func (b *Bridge) functionMetrics(fn string) *functionMetrics {
	if m, ok := b.functions.Load(fn); ok {
		return m.(*functionMetrics)
	}
	fl := Label{Key: "function", Value: fn}
	m, _ := b.functions.LoadOrStore(fn, &functionMetrics{
		invocations: b.reg.MustCounter("ta_function_invocations_total",
			"function invocations across all visits", fl),
		latency: b.reg.MustHistogram("ta_step_latency_seconds",
			"executed diagram-step latency, model seconds", 1e-3, 2, 22, fl),
	})
	return m.(*functionMetrics)
}

// VisitSpans converts one telemetry visit trace into the four-level span
// hierarchy: a visit root span, one function span per invocation, one step
// span per executed diagram step and one resource span per service call
// within each step. When the load generator ran without per-step tracing, the
// tree stops at the function level.
func VisitSpans(tr telemetry.VisitTrace) Trace {
	out := Trace{Spans: make([]Span, 0, 1+2*len(tr.Functions))}
	id := 0
	add := func(sp Span) int {
		id++
		sp.Trace = tr.ID
		sp.ID = id
		out.Spans = append(out.Spans, sp)
		return id
	}
	root := add(Span{
		Parent:   0,
		Level:    LevelVisit,
		Name:     tr.Scenario,
		Start:    tr.Start,
		Duration: tr.Duration,
		OK:       tr.OK,
		Cause:    string(tr.Cause),
		Attrs:    visitAttrs(tr),
	})
	at := tr.Start
	for _, fn := range tr.Functions {
		fnID := add(Span{
			Parent:   root,
			Level:    LevelFunction,
			Name:     fn.Function,
			Start:    at,
			Duration: fn.Duration,
			OK:       fn.OK,
			Cause:    string(fn.Cause),
		})
		at += fn.Duration
		for _, st := range fn.Steps {
			stID := add(Span{
				Parent:   fnID,
				Level:    LevelStep,
				Name:     st.Step,
				Start:    st.At,
				Duration: st.Latency,
				OK:       st.OK,
				Cause:    string(st.Cause),
			})
			for _, svc := range st.Services {
				ok := !(svc == st.FailedService && !st.OK)
				sp := Span{
					Parent: stID,
					Level:  LevelResource,
					Name:   svc,
					Start:  st.At,
					// Per-call latencies are not retained (the step records
					// the max over its parallel fan-out), so every resource
					// span inherits the step latency.
					Duration: st.Latency,
					OK:       ok,
				}
				if !ok {
					sp.Cause = string(st.Cause)
				}
				add(sp)
			}
		}
	}
	return out
}

func visitAttrs(tr telemetry.VisitTrace) map[string]string {
	attrs := map[string]string{}
	if tr.Class != "" {
		attrs["class"] = tr.Class
	}
	// The root span's Name already carries the scenario, but miners should
	// not have to know that convention: stamp it as an attr too, so profile
	// discovery keys on attrs alone.
	if tr.Scenario != "" {
		attrs["scenario"] = tr.Scenario
	}
	if tr.FailedService != "" {
		attrs["failed_service"] = tr.FailedService
	}
	if len(attrs) == 0 {
		return nil
	}
	return attrs
}
