// Package obs is the testbed's observability plane: a concurrent metrics
// registry rendered in the Prometheus text exposition format, hierarchical
// span tracing that mirrors the paper's four modeling levels (visit →
// function → service/diagram step → resource), an HTTP server exposing
// /metrics, /traces, /healthz and net/http/pprof, and a streaming drift
// detector that compares the measured user-perceived availability against the
// analytic prediction of equation (10) while a run is still in flight.
//
// The package is stdlib-only and deliberately free of model dependencies: it
// imports internal/telemetry for the shared geometric histogram layout and
// nothing else, so every layer of the reproduction — the live testbed, the
// compiled CTMC kernels, the sweep pool — can feed it without cycles.
package obs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// ErrRegistry is returned for invalid metric registrations.
var ErrRegistry = errors.New("obs: invalid metric registration")

// Label is one metric label pair.
type Label struct {
	Key   string
	Value string
}

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. All methods are safe for
// concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a concurrency-safe wrapper around the geometric
// telemetry.Histogram, rendered as a Prometheus histogram with cumulative
// le buckets.
type Histogram struct {
	mu sync.Mutex
	h  *telemetry.Histogram
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// Snapshot returns a point-in-time copy of the underlying histogram.
func (h *Histogram) Snapshot() telemetry.HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Snapshot()
}

// metricKind discriminates the series types a registry holds.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// series is one label-distinct time series.
type series struct {
	labels  string // rendered {k="v",...} signature, "" for unlabeled
	kind    metricKind
	counter *Counter
	gauge   *Gauge
	intFn   func() int64
	fn      func() float64
	hist    *Histogram
}

// metricFamily groups every series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series
}

// Registry is a concurrent metrics registry. Registration methods return the
// existing instrument when the same (name, labels) pair is registered twice,
// so call sites can re-register on a hot path without bookkeeping; a name
// re-registered with a different metric type is a programming error and
// returns ErrRegistry from Gather-time validation — the Must* helpers panic
// instead, which is the idiomatic form for static instrumentation.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName matches the Prometheus metric and label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// labelEscaper escapes backslashes, quotes and newlines in label values.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// renderLabels builds the canonical {k="v",...} signature with keys sorted,
// escaping backslashes, quotes and newlines in values.
func renderLabels(labels []Label) (string, error) {
	if len(labels) == 0 {
		return "", nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if !validName(l.Key) || l.Key == "__name__" {
			return "", fmt.Errorf("%w: label name %q", ErrRegistry, l.Key)
		}
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(labelEscaper.Replace(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String(), nil
}

// register resolves or creates the series for (name, labels, kind). build is
// called to construct a fresh series when none exists.
func (r *Registry) register(name, help string, kind metricKind, labels []Label, build func() *series) (*series, error) {
	if !validName(name) {
		return nil, fmt.Errorf("%w: metric name %q", ErrRegistry, name)
	}
	sig, err := renderLabels(labels)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	if f, ok := r.families[name]; ok && f.kind == kind {
		if s, ok := f.series[sig]; ok {
			r.mu.RUnlock()
			return s, nil
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != kind {
		return nil, fmt.Errorf("%w: metric %q registered as %s, requested %s",
			ErrRegistry, name, f.kind.promType(), kind.promType())
	}
	s, ok := f.series[sig]
	if !ok {
		s = build()
		s.labels = sig
		s.kind = kind
		f.series[sig] = s
	}
	return s, nil
}

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) (*Counter, error) {
	s, err := r.register(name, help, kindCounter, labels, func() *series {
		return &series{counter: &Counter{}}
	})
	if err != nil {
		return nil, err
	}
	return s.counter, nil
}

// MustCounter is Counter, panicking on registration errors.
func (r *Registry) MustCounter(name, help string, labels ...Label) *Counter {
	c, err := r.Counter(name, help, labels...)
	if err != nil {
		panic(err)
	}
	return c
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) (*Gauge, error) {
	s, err := r.register(name, help, kindGauge, labels, func() *series {
		return &series{gauge: &Gauge{}}
	})
	if err != nil {
		return nil, err
	}
	return s.gauge, nil
}

// MustGauge is Gauge, panicking on registration errors.
func (r *Registry) MustGauge(name, help string, labels ...Label) *Gauge {
	g, err := r.Gauge(name, help, labels...)
	if err != nil {
		panic(err)
	}
	return g
}

// CounterFunc registers a counter whose value is pulled from fn at render
// time — the bridge for components that already track counts in their own
// atomics (memo caches, solver kernels, admission queues).
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) error {
	if fn == nil {
		return fmt.Errorf("%w: nil CounterFunc for %q", ErrRegistry, name)
	}
	_, err := r.register(name, help, kindCounterFunc, labels, func() *series {
		return &series{intFn: fn}
	})
	return err
}

// GaugeFunc registers a gauge whose value is pulled from fn at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) error {
	if fn == nil {
		return fmt.Errorf("%w: nil GaugeFunc for %q", ErrRegistry, name)
	}
	_, err := r.register(name, help, kindGaugeFunc, labels, func() *series {
		return &series{fn: fn}
	})
	return err
}

// Histogram registers (or finds) a histogram series with the given geometric
// bucket layout (see telemetry.NewHistogram).
func (r *Registry) Histogram(name, help string, base, factor float64, buckets int, labels ...Label) (*Histogram, error) {
	th, err := telemetry.NewHistogram(base, factor, buckets)
	if err != nil {
		return nil, err
	}
	s, err := r.register(name, help, kindHistogram, labels, func() *series {
		return &series{hist: &Histogram{h: th}}
	})
	if err != nil {
		return nil, err
	}
	return s.hist, nil
}

// MustHistogram is Histogram, panicking on registration errors.
func (r *Registry) MustHistogram(name, help string, base, factor float64, buckets int, labels ...Label) *Histogram {
	h, err := r.Histogram(name, help, base, factor, buckets, labels...)
	if err != nil {
		panic(err)
	}
	return h
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, one HELP/TYPE
// header per family, series sorted by label signature, histograms expanded
// into cumulative le buckets plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.RUnlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind.promType()); err != nil {
			return err
		}
		r.mu.RLock()
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		ss := make([]*series, len(sigs))
		for i, sig := range sigs {
			ss[i] = f.series[sig]
		}
		r.mu.RUnlock()
		for _, s := range ss {
			if err := writeSeries(w, f.name, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, name string, s *series) error {
	switch s.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, s.labels, s.counter.Value())
		return err
	case kindCounterFunc:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, s.labels, s.intFn())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, s.labels, formatFloat(s.gauge.Value()))
		return err
	case kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, s.labels, formatFloat(s.fn()))
		return err
	case kindHistogram:
		return writeHistogram(w, name, s)
	default:
		return fmt.Errorf("%w: unknown series kind %d", ErrRegistry, int(s.kind))
	}
}

// writeHistogram expands a geometric histogram snapshot into cumulative
// Prometheus buckets. Bucket i of the telemetry layout has upper bound
// Base·Factor^i (bucket 0: Base); the catch-all renders as le="+Inf".
func writeHistogram(w io.Writer, name string, s *series) error {
	snap := s.hist.Snapshot()
	var cum int64
	for i, c := range snap.Counts {
		cum += c
		le := "+Inf"
		if i < len(snap.Counts)-1 {
			le = formatFloat(snap.Base * math.Pow(snap.Factor, float64(i)))
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(s.labels, "le", le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatFloat(snap.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, snap.Total)
	return err
}

// withLabel splices one extra label into an already-rendered signature.
func withLabel(sig, key, value string) string {
	extra := fmt.Sprintf(`%s="%s"`, key, value)
	if sig == "" {
		return "{" + extra + "}"
	}
	return sig[:len(sig)-1] + "," + extra + "}"
}

// formatFloat renders a float in the exposition format: shortest unambiguous
// form, with NaN/Inf spelled the Prometheus way.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
	}
}
