package tracemine

import (
	"bytes"
	"cmp"
	"encoding/json"
	"slices"

	"repro/internal/obs"
)

// This file keeps the straightforward grouper and folder the production
// ones are checked against: one map entry per (trace, id) pair, each
// trace's spans appended one by one, and spans copied by value.

// refSpanKey identifies one span across a stream.
type refSpanKey struct {
	trace uint64
	id    int
}

// refGrouper folds validated spans into traces in first-appearance order,
// dropping duplicate (trace, id) pairs.
type refGrouper struct {
	stats ReadStats
	index map[uint64]int // trace → position in out
	seen  map[refSpanKey]struct{}
	out   []obs.Trace
}

func newRefGrouper() *refGrouper {
	return &refGrouper{
		index: make(map[uint64]int),
		seen:  make(map[refSpanKey]struct{}),
	}
}

func (g *refGrouper) add(sp obs.Span) {
	if err := spanProblem(&sp); err != nil {
		g.stats.Malformed++
		return
	}
	key := refSpanKey{sp.Trace, sp.ID}
	if _, dup := g.seen[key]; dup {
		g.stats.Duplicates++
		return
	}
	g.seen[key] = struct{}{}
	idx, ok := g.index[sp.Trace]
	if !ok {
		idx = len(g.out)
		g.index[sp.Trace] = idx
		g.out = append(g.out, obs.Trace{})
		g.stats.Traces++
	}
	g.out[idx].Spans = append(g.out[idx].Spans, sp)
	g.stats.Spans++
}

// referenceGroupSpans is GroupSpans on the reference grouper.
func referenceGroupSpans(spans []obs.Span) ([]obs.Trace, ReadStats) {
	g := newRefGrouper()
	for _, sp := range spans {
		g.add(sp)
	}
	return g.out, g.stats
}

// referenceReadSpans is ReadSpans for in-memory input, splitting lines as
// bufio.Reader.ReadSlice does and decoding each with encoding/json alone.
func referenceReadSpans(input []byte) ([]obs.Trace, ReadStats) {
	g := newRefGrouper()
	for _, line := range bytes.SplitAfter(input, []byte("\n")) {
		trimmed := bytes.TrimSpace(line)
		switch {
		case len(line) > maxLineBytes:
			g.stats.Lines++
			g.stats.Malformed++
		case len(trimmed) > 0:
			g.stats.Lines++
			var sp obs.Span
			if err := json.Unmarshal(trimmed, &sp); err != nil {
				g.stats.Malformed++
				continue
			}
			g.add(sp)
		}
	}
	return g.out, g.stats
}

// referenceFold is Fold with the reference folder.
func referenceFold(traces []obs.Trace) ([]Visit, FoldStats) {
	var (
		stats FoldStats
		f     refFolder
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

// refFolder holds the buffers referenceFold reuses from one trace to the
// next.
type refFolder struct {
	sorted []obs.Span
	// owner records, per position in the ID-sorted spans, where an attached
	// function or step span went: its function index, and for a step its
	// step index; -1 when the span did not attach there.
	owner []refSpanOwner
}

type refSpanOwner struct{ fn, step int }

func (f *refFolder) fold(tr obs.Trace) (Visit, int64, bool) {
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
		v.Scenario = root.Name
	}

	owner := slices.Grow(f.owner[:0], len(spans))[:len(spans)]
	f.owner = owner
	for i := range owner {
		owner[i] = refSpanOwner{-1, -1}
	}
	parent := func(i, id int, level obs.Level) *refSpanOwner {
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
			owner[i] = refSpanOwner{o.fn, len(fn.Steps)}
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
