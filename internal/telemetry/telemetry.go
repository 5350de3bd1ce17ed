// Package telemetry records what the live travel-agency testbed actually did:
// per-visit traces (which functions and steps ran, at which virtual instants,
// how long each took, and why failures happened), per-function step-latency
// histograms, and failure-cause counters that separate performance losses
// (admission-buffer overflow) from structural losses (a required resource
// down). The collector rolls everything up into an empirical user-perceived
// availability with a 95% confidence interval — the measured side of the
// model-vs-measurement comparison that cmd/loadtest prints against the
// analytic predictions of internal/travelagency.
package telemetry

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/stats"
)

// ErrNoData is returned when a summary is requested before any visit was
// recorded.
var ErrNoData = errors.New("telemetry: no visits recorded")

// Cause classifies why a call, step or visit failed.
type Cause string

const (
	// CauseNone marks success.
	CauseNone Cause = ""
	// CauseResourceDown marks a structural failure: every replica a required
	// service depends on was down when the request arrived.
	CauseResourceDown Cause = "resource-down"
	// CauseBufferOverflow marks a performance failure: the web tier's
	// admission buffer held K requests, so the arrival was rejected
	// (the M/M/i/K loss of the paper's equations (1) and (3)).
	CauseBufferOverflow Cause = "buffer-overflow"
)

// StepTrace records one executed interaction-diagram step.
type StepTrace struct {
	Function string
	Step     string
	// Services are the services the step called. The testbed shares one
	// slice among every trace of the step, so it must not be modified.
	Services []string
	// At is the visit-virtual instant at which the step started.
	At float64
	// Latency is the step's duration in model seconds (max over the step's
	// parallel service calls, including injected latency spikes).
	Latency float64
	OK      bool
	Cause   Cause
	// FailedService names the first service whose call failed.
	FailedService string
}

// FunctionTrace records one function invocation within a visit.
type FunctionTrace struct {
	Function      string
	OK            bool
	Cause         Cause
	FailedService string
	// Duration is the function's total execution time in model seconds.
	Duration float64
	// Steps holds the executed steps when step tracing is enabled.
	Steps []StepTrace
}

// VisitTrace records one complete user visit.
type VisitTrace struct {
	ID       uint64
	Class    string
	Scenario string
	// Start is the visit's start instant on the fault-plane clock.
	Start float64
	// Duration is the visit's virtual wall-clock length in model seconds.
	Duration      float64
	OK            bool
	Cause         Cause
	FailedService string
	Functions     []FunctionTrace
}

// FunctionSummary aggregates one function's invocations.
type FunctionSummary struct {
	Invocations int64
	Failures    int64
	// Availability is the measured per-invocation success fraction.
	Availability float64
}

// Summary is the rolled-up result of a load-generation run.
type Summary struct {
	Visits    int64
	Successes int64
	// Availability is the measured user-perceived availability: the fraction
	// of visits in which every invoked function succeeded.
	Availability float64
	// CI95 is the Wald 95% confidence interval of Availability (honest
	// because visits are independent by construction).
	CI95 stats.Interval
	// MeanVisitDuration is in model seconds.
	MeanVisitDuration float64
	// Functions maps function name to its per-invocation summary.
	Functions map[string]FunctionSummary
	// Causes counts failed visits by first cause.
	Causes map[Cause]int64
	// DownByService counts structural visit failures by the service whose
	// resources were down.
	DownByService map[string]int64
}

// Collector accumulates traces from concurrent load-generation workers. All
// methods are safe for concurrent use. A Collector is created with
// NewCollector and must not be copied.
type Collector struct {
	mu         sync.Mutex
	keepTraces int
	traces     []VisitTrace
	nextTrace  int
	wrapped    bool

	visits    stats.Proportion
	durations stats.Welford
	functions map[string]*functionAgg
	causes    map[Cause]int64
	downBySvc map[string]int64

	onRecord func(VisitTrace)
}

type functionAgg struct {
	invocations int64
	failures    int64
	latency     *Histogram
}

// NewCollector creates a collector that retains the last keepTraces visit
// traces in a ring buffer (0 disables trace retention; aggregates are always
// kept).
func NewCollector(keepTraces int) *Collector {
	if keepTraces < 0 {
		keepTraces = 0
	}
	return &Collector{
		keepTraces: keepTraces,
		traces:     make([]VisitTrace, 0, keepTraces),
		functions:  make(map[string]*functionAgg),
		causes:     make(map[Cause]int64),
		downBySvc:  make(map[string]int64),
	}
}

// SetOnRecord installs a callback invoked (outside the collector lock) after
// every RecordVisit, with the visit trace just folded in. This is how a live
// observability plane — a metrics registry, a span tracer, a drift detector —
// taps the visit stream without the collector depending on it. The callback
// must be safe for concurrent use; passing nil removes it.
func (c *Collector) SetOnRecord(fn func(VisitTrace)) {
	c.mu.Lock()
	c.onRecord = fn
	c.mu.Unlock()
}

// RecordVisit folds one finished visit into the aggregates and the trace
// ring, then hands the trace to the OnRecord callback, if any.
func (c *Collector) RecordVisit(tr VisitTrace) {
	c.mu.Lock()
	c.visits.Add(tr.OK)
	c.durations.Add(tr.Duration)
	if !tr.OK {
		c.causes[tr.Cause]++
		if tr.Cause == CauseResourceDown && tr.FailedService != "" {
			c.downBySvc[tr.FailedService]++
		}
	}
	for _, fn := range tr.Functions {
		agg := c.functions[fn.Function]
		if agg == nil {
			agg = &functionAgg{latency: defaultLatencyHistogram()}
			c.functions[fn.Function] = agg
		}
		agg.invocations++
		if !fn.OK {
			agg.failures++
		}
		for _, st := range fn.Steps {
			agg.latency.Observe(st.Latency)
		}
		if len(fn.Steps) == 0 {
			// Step tracing disabled: fall back to one observation per
			// function so latency telemetry is never empty.
			agg.latency.Observe(fn.Duration)
		}
	}
	c.insertTrace(tr)
	fn := c.onRecord
	c.mu.Unlock()
	if fn != nil {
		fn(tr)
	}
}

// insertTrace appends one trace to the retention ring. Caller holds c.mu.
func (c *Collector) insertTrace(tr VisitTrace) {
	if c.keepTraces <= 0 {
		return
	}
	if len(c.traces) < c.keepTraces {
		c.traces = append(c.traces, tr)
	} else {
		c.traces[c.nextTrace] = tr
		c.wrapped = true
	}
	c.nextTrace = (c.nextTrace + 1) % c.keepTraces
}

// Merge folds another collector's aggregates into this one: visit and
// duration statistics (so the merged Wald CI equals the one a single
// collector would have computed over the union of visits), per-function
// summaries with their latency histograms, the failure-cause taxonomy, the
// per-service down counts, and the retained traces (oldest first, subject to
// this collector's ring capacity). The other collector is left unchanged.
//
// Merging is commutative and associative for every counted aggregate, and
// for duration means/variances up to floating-point rounding — the property
// that lets a million-visit run shard across collectors and reduce in any
// order. OnRecord callbacks do not fire for merged visits.
func (c *Collector) Merge(o *Collector) error {
	if o == nil {
		return nil
	}
	if o == c {
		return fmt.Errorf("telemetry: cannot merge a collector into itself")
	}
	// Snapshot the source outside c's lock so the two locks never nest in
	// both orders.
	o.mu.Lock()
	visits := o.visits
	durations := o.durations
	functions := make(map[string]*functionAgg, len(o.functions))
	for name, agg := range o.functions {
		cp := &functionAgg{
			invocations: agg.invocations,
			failures:    agg.failures,
			latency:     defaultLatencyHistogram(),
		}
		if err := cp.latency.Merge(agg.latency); err != nil {
			o.mu.Unlock()
			return err
		}
		functions[name] = cp
	}
	causes := make(map[Cause]int64, len(o.causes))
	for k, v := range o.causes {
		causes[k] = v
	}
	downBySvc := make(map[string]int64, len(o.downBySvc))
	for k, v := range o.downBySvc {
		downBySvc[k] = v
	}
	traces := o.orderedTraces()
	o.mu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	c.visits.Merge(visits)
	c.durations.Merge(durations)
	for name, agg := range functions {
		dst := c.functions[name]
		if dst == nil {
			c.functions[name] = agg
			continue
		}
		dst.invocations += agg.invocations
		dst.failures += agg.failures
		if err := dst.latency.Merge(agg.latency); err != nil {
			return err
		}
	}
	for k, v := range causes {
		c.causes[k] += v
	}
	for k, v := range downBySvc {
		c.downBySvc[k] += v
	}
	for _, tr := range traces {
		c.insertTrace(tr)
	}
	return nil
}

// Summary rolls up everything recorded so far.
func (c *Collector) Summary() (Summary, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.visits.Trials() == 0 {
		return Summary{}, ErrNoData
	}
	avail, err := c.visits.Estimate()
	if err != nil {
		return Summary{}, err
	}
	ci, err := c.visits.ConfidenceInterval(0.95)
	if err != nil {
		return Summary{}, err
	}
	s := Summary{
		Visits:            c.visits.Trials(),
		Availability:      avail,
		CI95:              ci,
		MeanVisitDuration: c.durations.Mean(),
		Functions:         make(map[string]FunctionSummary, len(c.functions)),
		Causes:            make(map[Cause]int64, len(c.causes)),
		DownByService:     make(map[string]int64, len(c.downBySvc)),
	}
	s.Successes = int64(avail*float64(s.Visits) + 0.5)
	for name, agg := range c.functions {
		fs := FunctionSummary{Invocations: agg.invocations, Failures: agg.failures}
		if agg.invocations > 0 {
			fs.Availability = 1 - float64(agg.failures)/float64(agg.invocations)
		}
		s.Functions[name] = fs
	}
	for cause, n := range c.causes {
		s.Causes[cause] = n
	}
	for svc, n := range c.downBySvc {
		s.DownByService[svc] = n
	}
	return s, nil
}

// LatencyQuantiles returns upper bounds on the given step-latency quantiles
// for one function (model seconds).
func (c *Collector) LatencyQuantiles(function string, qs ...float64) ([]float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	agg := c.functions[function]
	if agg == nil || agg.latency.Count() == 0 {
		return nil, fmt.Errorf("%w: function %q", ErrNoData, function)
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = agg.latency.Quantile(q)
	}
	return out, nil
}

// StepLatency returns a merged copy of every function's step-latency
// histogram.
func (c *Collector) StepLatency() *Histogram {
	c.mu.Lock()
	defer c.mu.Unlock()
	merged := defaultLatencyHistogram()
	for _, agg := range c.functions {
		// Identical layouts by construction, so Merge cannot fail.
		_ = merged.Merge(agg.latency)
	}
	return merged
}

// Traces returns the retained visit traces, oldest first.
func (c *Collector) Traces() []VisitTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.orderedTraces()
}

// orderedTraces copies the retention ring oldest first. Caller holds c.mu.
func (c *Collector) orderedTraces() []VisitTrace {
	out := make([]VisitTrace, 0, len(c.traces))
	if c.wrapped {
		out = append(out, c.traces[c.nextTrace:]...)
		out = append(out, c.traces[:c.nextTrace]...)
	} else {
		out = append(out, c.traces...)
	}
	return out
}
