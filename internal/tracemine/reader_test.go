package tracemine

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// spanLine renders one span as a JSONL line in the /traces wire format.
func spanLine(trace uint64, id, parent int, level obs.Level, name string, ok bool) string {
	return fmt.Sprintf(`{"trace":%d,"id":%d,"parent":%d,"level":%q,"name":%q,"ok":%v}`,
		trace, id, parent, level, name, ok)
}

func TestReadSpansTolerant(t *testing.T) {
	input := strings.Join([]string{
		spanLine(1, 1, 0, obs.LevelVisit, "1: St-Ho-Ex", true),
		spanLine(1, 2, 1, obs.LevelFunction, "Home", true),
		"",          // blank line: ignored, not counted
		"{not json", // malformed JSON
		spanLine(1, 2, 1, obs.LevelFunction, "Home", true), // duplicate (trace, id)
		spanLine(2, 1, 0, obs.LevelVisit, "2: St-Br-Ex", true),
		`{"trace":3,"id":0,"level":"visit"}`,                          // invalid: id < 1
		`{"trace":3,"id":5,"parent":7,"level":"visit"}`,               // invalid: parent >= id
		`{"trace":3,"id":1,"parent":0,"level":"galaxy"}`,              // invalid: unknown level
		`{"trace":3,"id":1,"parent":0,"level":"visit","duration":-1}`, // invalid: negative duration
		spanLine(3, 1, 0, obs.LevelVisit, "1: St-Ho-Ex", true),
	}, "\n") + "\n" + `{"trace":4,"id":1,"parent":0,"level":"vis` // truncated tail, no newline

	traces, rs, err := ReadSpans(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Lines != 11 {
		t.Errorf("lines = %d, want 11", rs.Lines)
	}
	if rs.Spans != 4 {
		t.Errorf("spans = %d, want 4", rs.Spans)
	}
	if rs.Malformed != 6 {
		t.Errorf("malformed = %d, want 6", rs.Malformed)
	}
	if rs.Duplicates != 1 {
		t.Errorf("duplicates = %d, want 1", rs.Duplicates)
	}
	if rs.Traces != 3 || len(traces) != 3 {
		t.Fatalf("traces = %d (stat %d), want 3", len(traces), rs.Traces)
	}
	// First-appearance order.
	for i, want := range []uint64{1, 2, 3} {
		if got := traces[i].Spans[0].Trace; got != want {
			t.Errorf("trace[%d] id = %d, want %d", i, got, want)
		}
	}
	if len(traces[0].Spans) != 2 {
		t.Errorf("trace 1 kept %d spans, want 2", len(traces[0].Spans))
	}
}

// TestReadSpansFastPath: every line of a real testbed stream (steps kept,
// both classes) takes the reflection-free path, and the result is the one
// encoding/json gives line by line.
func TestReadSpansFastPath(t *testing.T) {
	traces := runTestbed(t, 300, 3)
	tracer := obs.NewTracer(len(traces))
	for _, tr := range traces {
		tracer.Record(tr)
	}
	var buf bytes.Buffer
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := readSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g.fallbacks != 0 {
		t.Errorf("%d of %d lines fell back to encoding/json", g.fallbacks, g.stats.Lines)
	}

	var spans []obs.Span
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var sp obs.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, sp)
	}
	want, wantStats := GroupSpans(spans)
	wantStats.Lines = int64(len(spans))
	if g.stats != wantStats {
		t.Errorf("stats = %+v, want %+v", g.stats, wantStats)
	}
	if !reflect.DeepEqual(g.out, want) {
		t.Error("fast-path traces differ from encoding/json's")
	}
}

// TestReadSpansLineCap: a line over maxLineBytes is counted malformed and
// skipped without ending the scan, even when it holds a valid span.
func TestReadSpansLineCap(t *testing.T) {
	input := spanLine(1, 1, 0, obs.LevelVisit, "v", true) + "\n" +
		spanLine(3, 1, 0, obs.LevelVisit, strings.Repeat("x", 2<<20), true) + "\n" +
		spanLine(2, 1, 0, obs.LevelVisit, "v", true) + "\n"
	_, rs, err := ReadSpans(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Lines != 3 || rs.Spans != 2 || rs.Malformed != 1 {
		t.Errorf("stats = %+v, want 3 lines / 2 spans / 1 malformed", rs)
	}
}

// errReader fails after yielding its payload: only genuine I/O errors abort.
type errReader struct {
	data string
	done bool
}

func (r *errReader) Read(p []byte) (int, error) {
	if !r.done {
		r.done = true
		return copy(p, r.data), nil
	}
	return 0, errors.New("disk on fire")
}

func TestReadSpansIOError(t *testing.T) {
	line := spanLine(1, 1, 0, obs.LevelVisit, "v", true) + "\n"
	traces, rs, err := ReadSpans(&errReader{data: line})
	if err == nil {
		t.Fatal("I/O error was swallowed")
	}
	if rs.Spans != 1 || len(traces) != 1 {
		t.Errorf("spans before the error = %d (traces %d), want 1", rs.Spans, len(traces))
	}
}

func TestGroupSpans(t *testing.T) {
	spans := []obs.Span{
		{Trace: 7, ID: 1, Level: obs.LevelVisit, Name: "v", OK: true},
		{Trace: 9, ID: 1, Level: obs.LevelVisit, Name: "v", OK: true},
		{Trace: 7, ID: 2, Parent: 1, Level: obs.LevelFunction, Name: "Home", OK: true},
		{Trace: 7, ID: 2, Parent: 1, Level: obs.LevelFunction, Name: "Home", OK: true}, // dup
		{Trace: 9, ID: 0, Level: obs.LevelVisit},                                       // invalid
	}
	traces, rs := GroupSpans(spans)
	if len(traces) != 2 || rs.Traces != 2 {
		t.Fatalf("traces = %d, want 2", len(traces))
	}
	if rs.Spans != 3 || rs.Duplicates != 1 || rs.Malformed != 1 {
		t.Errorf("stats = %+v, want 3 spans / 1 dup / 1 malformed", rs)
	}
	if len(traces[0].Spans) != 2 || traces[0].Spans[0].Trace != 7 {
		t.Errorf("trace[0] = %+v", traces[0])
	}
}

func TestFold(t *testing.T) {
	traces := []obs.Trace{
		{Spans: []obs.Span{
			// Emitted out of order: Fold sorts by ID.
			{Trace: 1, ID: 3, Parent: 2, Level: obs.LevelStep, Name: "query", OK: true},
			{Trace: 1, ID: 1, Parent: 0, Level: obs.LevelVisit, Name: "2: St-Br-Ex", OK: false, Cause: "resource-down",
				Attrs: map[string]string{"class": "class A", "scenario": "2: St-Br-Ex"}},
			{Trace: 1, ID: 2, Parent: 1, Level: obs.LevelFunction, Name: "Browse", OK: false, Cause: "resource-down"},
			{Trace: 1, ID: 4, Parent: 3, Level: obs.LevelResource, Name: "DS", OK: false, Cause: "resource-down"},
			{Trace: 1, ID: 5, Parent: 99, Level: obs.LevelStep, Name: "lost", OK: true}, // orphan: unknown parent
		}},
		{Spans: []obs.Span{ // no visit root: dropped, spans all orphaned
			{Trace: 2, ID: 1, Parent: 0, Level: obs.LevelFunction, Name: "Home", OK: true},
		}},
	}
	visits, fs := Fold(traces)
	if fs.Visits != 1 || fs.NoRoot != 1 || fs.Orphans != 2 {
		t.Fatalf("fold stats = %+v, want 1 visit / 1 no-root / 2 orphans", fs)
	}
	v := visits[0]
	if v.Class != "class A" || v.Scenario != "2: St-Br-Ex" || v.OK || v.Cause != "resource-down" {
		t.Errorf("visit = %+v", v)
	}
	if len(v.Functions) != 1 || v.Functions[0].Name != "Browse" {
		t.Fatalf("functions = %+v", v.Functions)
	}
	st := v.Functions[0].Steps
	if len(st) != 1 || st[0].Name != "query" || len(st[0].Resources) != 1 || st[0].Resources[0].Service != "DS" {
		t.Errorf("steps = %+v", st)
	}
}

// TestFoldScenarioFallback: emitters predating the scenario attr named the
// root span after the scenario.
func TestFoldScenarioFallback(t *testing.T) {
	visits, _ := Fold([]obs.Trace{{Spans: []obs.Span{
		{Trace: 1, ID: 1, Level: obs.LevelVisit, Name: "1: St-Ho-Ex", OK: true},
	}}})
	if len(visits) != 1 || visits[0].Scenario != "1: St-Ho-Ex" {
		t.Fatalf("visits = %+v", visits)
	}
	if visits[0].Class != "" {
		t.Errorf("class = %q, want empty", visits[0].Class)
	}
}

// TestFoldSparseIDs: parents are found by ID, not position, so huge,
// sparse and shuffled IDs fold like dense ones, and a child whose parent
// ID names a span of the wrong level is an orphan.
func TestFoldSparseIDs(t *testing.T) {
	const big = 1 << 62
	visits, fs := Fold([]obs.Trace{{Spans: []obs.Span{
		{Trace: 1, ID: big + 9, Parent: big, Level: obs.LevelResource, Name: "DS", OK: true},
		{Trace: 1, ID: 7, Parent: 0, Level: obs.LevelVisit, Name: "v", OK: true},
		{Trace: 1, ID: big, Parent: 1000, Level: obs.LevelStep, Name: "query", OK: true},
		{Trace: 1, ID: 1000, Parent: 7, Level: obs.LevelFunction, Name: "Search", OK: true},
		{Trace: 1, ID: big + 10, Parent: 1000, Level: obs.LevelResource, Name: "AS", OK: true}, // parent is a function
	}}})
	if fs.Visits != 1 || fs.Orphans != 1 {
		t.Fatalf("fold stats = %+v, want 1 visit / 1 orphan", fs)
	}
	fns := visits[0].Functions
	if len(fns) != 1 || len(fns[0].Steps) != 1 || len(fns[0].Steps[0].Resources) != 1 ||
		fns[0].Steps[0].Resources[0].Service != "DS" {
		t.Errorf("functions = %+v", fns)
	}
}
