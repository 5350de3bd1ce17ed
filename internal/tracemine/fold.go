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
func Fold(traces []obs.Trace) ([]Visit, FoldStats) {
	var (
		stats FoldStats
		f     folder
	)
	visits := make([]Visit, 0, len(traces))
	for _, tr := range traces {
		v, orphans, ok := f.fold(tr)
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

// folder holds the buffers Fold reuses from one trace to the next.
type folder struct {
	sorted []obs.Span
	// owner records, per position in the ID-sorted spans, where an attached
	// function or step span went: its function index, and for a step its
	// step index; -1 when the span did not attach there.
	owner []spanOwner
}

type spanOwner struct{ fn, step int }

func byID(a, b obs.Span) int { return cmp.Compare(a.ID, b.ID) }

func (f *folder) fold(tr obs.Trace) (Visit, int64, bool) {
	spans := tr.Spans
	if !slices.IsSortedFunc(spans, byID) {
		f.sorted = append(f.sorted[:0], spans...)
		spans = f.sorted
		slices.SortFunc(spans, byID)
	}
	rootIdx := slices.IndexFunc(spans, func(sp obs.Span) bool {
		return sp.Level == obs.LevelVisit && sp.Parent == 0
	})
	if rootIdx < 0 {
		return Visit{}, int64(len(spans)), false
	}
	root := spans[rootIdx]
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
	f.owner = owner
	for i := range owner {
		owner[i] = spanOwner{-1, -1}
	}
	// parent returns the owner of the span with ID id if it precedes
	// position i and has the given level, else nil.
	parent := func(i, id int, level obs.Level) *spanOwner {
		j, ok := slices.BinarySearchFunc(spans[:i], id, func(sp obs.Span, id int) int {
			return cmp.Compare(sp.ID, id)
		})
		if !ok || spans[j].Level != level {
			return nil
		}
		return &owner[j]
	}
	var orphans int64
	for i, sp := range spans {
		if i == rootIdx {
			continue
		}
		switch sp.Level {
		case obs.LevelFunction:
			if sp.Parent != root.ID {
				orphans++
				continue
			}
			owner[i].fn = len(v.Functions)
			v.Functions = append(v.Functions, VisitFunction{
				Name:  sp.Name,
				OK:    sp.OK,
				Cause: sp.Cause,
			})
		case obs.LevelStep:
			o := parent(i, sp.Parent, obs.LevelFunction)
			if o == nil || o.fn < 0 {
				orphans++
				continue
			}
			fn := &v.Functions[o.fn]
			owner[i] = spanOwner{o.fn, len(fn.Steps)}
			fn.Steps = append(fn.Steps, VisitStep{
				Name:  sp.Name,
				OK:    sp.OK,
				Cause: sp.Cause,
			})
		case obs.LevelResource:
			o := parent(i, sp.Parent, obs.LevelStep)
			if o == nil || o.step < 0 {
				orphans++
				continue
			}
			st := &v.Functions[o.fn].Steps[o.step]
			st.Resources = append(st.Resources, VisitResource{
				Service: sp.Name,
				OK:      sp.OK,
				Cause:   sp.Cause,
			})
		default: // a second visit-level span in the same trace
			orphans++
		}
	}
	return v, orphans, true
}
