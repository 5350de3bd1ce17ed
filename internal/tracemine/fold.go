package tracemine

import (
	"cmp"
	"slices"

	"repro/internal/obs"
)

// Visit is one user visit reconstructed from a span tree — the mining-side
// mirror of telemetry.VisitTrace, carrying only what the estimators need.
type Visit struct {
	Trace    uint64
	Class    string // "" when the visit-level class attr is absent
	Scenario string
	OK       bool
	Cause    string
	// Functions in invocation order; empty Steps when the trace stops at
	// the function level (step tracing disabled at the source).
	Functions []VisitFunction
}

// VisitFunction is one reconstructed function invocation.
type VisitFunction struct {
	Name  string
	OK    bool
	Cause string
	Steps []VisitStep
}

// VisitStep is one executed interaction-diagram step.
type VisitStep struct {
	Name      string
	OK        bool
	Cause     string
	Resources []VisitResource
}

// VisitResource is one service call within a step.
type VisitResource struct {
	Service string
	OK      bool
	Cause   string
}

// FoldStats counts tree-reconstruction anomalies.
type FoldStats struct {
	// Visits is the number of visit trees successfully reconstructed.
	Visits int64 `json:"visits"`
	// NoRoot counts traces dropped for lack of a visit-level root span.
	NoRoot int64 `json:"no_root"`
	// Orphans counts spans that could not be attached to a parent of the
	// expected level (the rest of their trace is still used).
	Orphans int64 `json:"orphans"`
}

// Fold reconstructs visit trees from flat span traces. Children attach to
// parents strictly one level down (visit→function→step→resource), ordered by
// span ID, which matches emission order; spans violating the hierarchy are
// counted as orphans and skipped. When a trace repeats a span ID (ReadSpans
// and GroupSpans never let one through), a child attaches only to the first
// span with its parent's ID.
//
// The visits' Functions, Steps and Resources slices are carved from shared
// blocks with cap == len, and are nil when empty.
func Fold(traces []obs.Trace) ([]Visit, FoldStats) {
	var (
		stats FoldStats
		f     folder
	)
	visits := make([]Visit, 0, len(traces))
	for i := range traces {
		v, orphans, ok := f.fold(traces[i].Spans)
		stats.Orphans += orphans
		if !ok {
			stats.NoRoot++
			continue
		}
		stats.Visits++
		visits = append(visits, v)
	}
	return visits, stats
}

// folder holds the buffers Fold reuses from one trace to the next and the
// arenas its visits' lists are carved from.
type folder struct {
	sorted []obs.Span
	// owner records, per position in the ID-sorted spans, where the span
	// attached: its function index, and for a step or resource its step's
	// index in that function; fn is -1 when it did not attach.
	owner []spanOwner
	// children counts, per position, the spans attached under that span.
	children []int
	fns      arena[VisitFunction]
	steps    arena[VisitStep]
	res      arena[VisitResource]
}

type spanOwner struct{ fn, step int }

func byID(a, b obs.Span) int { return cmp.Compare(a.ID, b.ID) }

// fold reconstructs one visit in two passes over the ID-sorted spans: the
// first decides where each span attaches and counts each list, the second
// fills lists carved to those counts.
func (f *folder) fold(spans []obs.Span) (Visit, int64, bool) {
	if !sortedByID(spans) {
		f.sorted = append(f.sorted[:0], spans...)
		spans = f.sorted
		slices.SortFunc(spans, byID)
	}
	rootIdx := -1
	for i := range spans {
		if spans[i].Level == obs.LevelVisit && spans[i].Parent == 0 {
			rootIdx = i
			break
		}
	}
	if rootIdx < 0 {
		return Visit{}, int64(len(spans)), false
	}
	root := &spans[rootIdx]
	v := Visit{
		Trace:    root.Trace,
		Class:    root.Attrs["class"],
		Scenario: root.Attrs["scenario"],
		OK:       root.OK,
		Cause:    root.Cause,
	}
	if v.Scenario == "" {
		// Older emitters named the root span after the scenario instead of
		// stamping an attr.
		v.Scenario = root.Name
	}

	owner := slices.Grow(f.owner[:0], len(spans))[:len(spans)]
	children := slices.Grow(f.children[:0], len(spans))[:len(spans)]
	f.owner, f.children = owner, children
	for i := range owner {
		owner[i] = spanOwner{-1, -1}
		children[i] = 0
	}
	var functions int
	var orphans int64
	for i := range spans {
		sp := &spans[i]
		if i == rootIdx {
			continue
		}
		switch sp.Level {
		case obs.LevelFunction:
			if sp.Parent != root.ID {
				orphans++
				continue
			}
			owner[i].fn = functions
			functions++
		case obs.LevelStep:
			j := parentAt(spans[:i], sp.Parent, obs.LevelFunction)
			if j < 0 || owner[j].fn < 0 {
				orphans++
				continue
			}
			owner[i] = spanOwner{owner[j].fn, children[j]}
			children[j]++
		case obs.LevelResource:
			j := parentAt(spans[:i], sp.Parent, obs.LevelStep)
			if j < 0 || owner[j].step < 0 {
				orphans++
				continue
			}
			owner[i] = owner[j]
			children[j]++
		default: // a second visit-level span in the same trace
			orphans++
		}
	}

	v.Functions = f.fns.take(functions)[:functions]
	for i := range spans {
		o := owner[i]
		if o.fn < 0 {
			continue
		}
		sp := &spans[i]
		switch sp.Level {
		case obs.LevelFunction:
			v.Functions[o.fn] = VisitFunction{
				Name:  sp.Name,
				OK:    sp.OK,
				Cause: sp.Cause,
				Steps: f.steps.take(children[i]),
			}
		case obs.LevelStep:
			fn := &v.Functions[o.fn]
			fn.Steps = append(fn.Steps, VisitStep{
				Name:      sp.Name,
				OK:        sp.OK,
				Cause:     sp.Cause,
				Resources: f.res.take(children[i]),
			})
		case obs.LevelResource:
			st := &v.Functions[o.fn].Steps[o.step]
			st.Resources = append(st.Resources, VisitResource{
				Service: sp.Name,
				OK:      sp.OK,
				Cause:   sp.Cause,
			})
		}
	}
	return v, orphans, true
}

// sortedByID reports whether spans are in ascending ID order.
func sortedByID(spans []obs.Span) bool {
	for i := 1; i < len(spans); i++ {
		if spans[i].ID < spans[i-1].ID {
			return false
		}
	}
	return true
}

// parentAt returns the position of the first of the ID-sorted spans with
// the given ID if it has the given level, else -1.
func parentAt(spans []obs.Span, id int, level obs.Level) int {
	lo, hi := 0, len(spans)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if spans[m].ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(spans) || spans[lo].ID != id || spans[lo].Level != level {
		return -1
	}
	return lo
}
