package obs

import (
	"encoding/json"
	"io"
	"sync"

	"repro/internal/telemetry"
)

// Level places a span on the paper's four-level modeling hierarchy.
type Level string

const (
	// LevelVisit is a complete user visit (the user level of equation (10)).
	LevelVisit Level = "visit"
	// LevelFunction is one function invocation (Home, Browse, Search, Book,
	// Pay — the function level of Table 6).
	LevelFunction Level = "function"
	// LevelStep is one executed interaction-diagram step (the service level
	// of Figures 3–6).
	LevelStep Level = "step"
	// LevelResource is one service call within a step, resolved against the
	// tier resources that implement it (the resource level of Figures 7–8).
	LevelResource Level = "resource"
)

// Span is one timed, hierarchical unit of work. Instants and durations are in
// model seconds on the fault-plane clock, mirroring the virtual time base of
// the telemetry traces.
type Span struct {
	// Trace groups all spans of one visit; for testbed visits it is the
	// visit ID.
	Trace uint64 `json:"trace"`
	// ID is the span's identifier within its trace (1-based, breadth of the
	// walk); Parent is 0 for the root span.
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Level  Level   `json:"level"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	// Duration is the span's length in model seconds.
	Duration float64 `json:"duration"`
	OK       bool    `json:"ok"`
	Cause    string  `json:"cause,omitempty"`
	// Attrs carries small string annotations (user class, scenario, failed
	// service).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Trace is one visit's complete span tree, stored flat with parent links.
type Trace struct {
	Spans []Span
}

// Tracer retains the most recent traces in a bounded in-memory ring and
// exports them as JSON lines (one span per line). A testbed visit is kept as
// its telemetry trace, and its span tree is built only when the ring is
// read. All methods are safe for concurrent use.
type Tracer struct {
	mu       sync.Mutex
	capacity int
	ring     []entry
	next     int
	recorded int64
}

// entry is one retained trace: a visit kept as recorded (spans empty) or a
// span trace recorded whole.
type entry struct {
	visit telemetry.VisitTrace
	spans Trace
}

// trace returns the entry's span tree.
func (e *entry) trace() Trace {
	if len(e.spans.Spans) > 0 {
		return e.spans
	}
	return VisitSpans(e.visit)
}

// NewTracer creates a tracer that keeps the last capacity traces (minimum 1).
// The ring grows to its capacity as traces arrive.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{capacity: capacity}
}

// Record adds one trace, evicting the oldest when the ring is full. Empty
// traces are ignored.
func (t *Tracer) Record(tr Trace) {
	if len(tr.Spans) == 0 {
		return
	}
	t.add(entry{spans: tr})
}

// RecordVisit adds one testbed visit, evicting the oldest trace when the
// ring is full; readers see it as VisitSpans(tr). The tracer keeps tr's
// slices, so the caller must not modify them afterwards.
func (t *Tracer) RecordVisit(tr telemetry.VisitTrace) {
	t.add(entry{visit: tr})
}

func (t *Tracer) add(e entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recorded++
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.next] = e
	}
	t.next = (t.next + 1) % t.capacity
}

// Recorded returns the total number of traces ever recorded (retained or
// evicted) — the counter exported as obs_traces_recorded_total.
func (t *Tracer) Recorded() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recorded
}

// entries copies up to limit of the most recently retained entries, oldest
// first (limit ≤ 0 copies all), so spans are built outside the lock.
func (t *Tracer) entries(limit int) []entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.ring)
	if limit > 0 && limit < n {
		n = limit
	}
	// Once the ring is full, the oldest entry sits at next.
	oldest := 0
	if len(t.ring) == t.capacity {
		oldest = t.next
	}
	out := make([]entry, n)
	for i := range out {
		out[i] = t.ring[(oldest+len(t.ring)-n+i)%len(t.ring)]
	}
	return out
}

// Traces returns the retained traces, oldest first.
func (t *Tracer) Traces() []Trace {
	return t.Snapshot(0)
}

// Snapshot returns up to limit of the most recently retained traces, oldest
// first. A limit ≤ 0 (or one at least the retained count) returns everything,
// making Snapshot(0) equivalent to Traces.
func (t *Tracer) Snapshot(limit int) []Trace {
	es := t.entries(limit)
	out := make([]Trace, len(es))
	for i := range es {
		out[i] = es[i].trace()
	}
	return out
}

// WriteJSONL writes every retained span as one JSON object per line, traces
// oldest first, spans in tree order within each trace.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return t.WriteJSONLLimit(w, 0)
}

// WriteJSONLLimit is WriteJSONL restricted to the last limit traces
// (limit ≤ 0 writes everything) — the bounded path behind /traces?limit=.
// It builds and encodes one trace at a time.
func (t *Tracer) WriteJSONLLimit(w io.Writer, limit int) error {
	enc := json.NewEncoder(w)
	es := t.entries(limit)
	for i := range es {
		for _, sp := range es[i].trace().Spans {
			if err := enc.Encode(sp); err != nil {
				return err
			}
		}
	}
	return nil
}
