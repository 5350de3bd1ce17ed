package tracemine

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// FuzzReadSpans drives arbitrary bytes through the tolerant JSONL reader:
// it must never panic and never return an error for in-memory input —
// malformed content is skipped and counted, and the stats must stay
// internally consistent. Traces, stats and the fold of the traces must
// equal the reference grouper's and folder's exactly.
func FuzzReadSpans(f *testing.F) {
	f.Add("")
	f.Add("\n\n\n")
	f.Add(`{"trace":1,"id":1,"parent":0,"level":"visit","name":"v","ok":true}` + "\n")
	f.Add(`{"trace":1,"id":1,"level":"visit"}` + "\n" + `{"trace":1,"id":1,"level":"visit"}` + "\n")
	f.Add("{not json}\nplain text\n")
	f.Add(`{"trace":1,"id":-3,"level":"visit"}` + "\n")
	f.Add(`{"trace":1,"id":2,"parent":5,"level":"step"}` + "\n")
	f.Add(`{"trace":1,"id":1,"parent":0,"level":"visit","duration":1e999}` + "\n")
	f.Add(`{"trace":1,"id":1,"parent":0,"level":"visit","start":"NaN"}` + "\n")
	f.Add(`{"trace":1,"id":1,"parent":0,"level":"vis`) // truncated tail
	lines := func(ls ...string) string { return strings.Join(ls, "\n") + "\n" }
	// A trace resumed after others.
	f.Add(lines(
		spanLine(1, 1, 0, obs.LevelVisit, "v", true),
		spanLine(1, 2, 1, obs.LevelFunction, "Home", true),
		spanLine(2, 1, 0, obs.LevelVisit, "v", true),
		spanLine(3, 1, 0, obs.LevelVisit, "v", true),
		spanLine(1, 3, 2, obs.LevelStep, "s", true),
		spanLine(2, 2, 1, obs.LevelFunction, "Browse", false),
	))
	// Duplicates before and after a resume.
	f.Add(lines(
		spanLine(1, 1, 0, obs.LevelVisit, "v", true),
		spanLine(1, 2, 1, obs.LevelFunction, "Home", true),
		spanLine(1, 2, 1, obs.LevelFunction, "Home", true),
		spanLine(2, 1, 0, obs.LevelVisit, "v", true),
		spanLine(1, 2, 1, obs.LevelFunction, "Home", true),
		spanLine(1, 1, 0, obs.LevelVisit, "v", true),
		spanLine(1, 3, 2, obs.LevelStep, "s", true),
		spanLine(1, 3, 2, obs.LevelStep, "s", true),
	))
	// Descending IDs, with a repeat.
	f.Add(lines(
		spanLine(1, 4, 3, obs.LevelResource, "DS", true),
		spanLine(1, 3, 2, obs.LevelStep, "s", true),
		spanLine(1, 2, 1, obs.LevelFunction, "Home", true),
		spanLine(1, 3, 2, obs.LevelStep, "s", true),
		spanLine(1, 1, 0, obs.LevelVisit, "v", true),
	))
	// Malformed lines between duplicates.
	f.Add(lines(
		spanLine(1, 1, 0, obs.LevelVisit, "v", true),
		"{not json",
		spanLine(1, 1, 0, obs.LevelVisit, "v", true),
		`{"trace":1,"id":1,"parent":0,"level":"galaxy"}`,
		spanLine(1, 1, 0, obs.LevelVisit, "v", true),
		spanLine(1, 2, 1, obs.LevelFunction, "Home", true),
	))
	f.Fuzz(func(t *testing.T, input string) {
		traces, rs, err := ReadSpans(strings.NewReader(input))
		if err != nil {
			t.Fatalf("in-memory read errored: %v", err)
		}
		var kept int64
		for _, tr := range traces {
			kept += int64(len(tr.Spans))
		}
		if kept != rs.Spans {
			t.Fatalf("stats claim %d spans, traces hold %d", rs.Spans, kept)
		}
		if int64(len(traces)) != rs.Traces {
			t.Fatalf("stats claim %d traces, got %d", rs.Traces, len(traces))
		}
		if rs.Spans+rs.Malformed+rs.Duplicates != rs.Lines {
			t.Fatalf("lines %d != spans %d + malformed %d + duplicates %d",
				rs.Lines, rs.Spans, rs.Malformed, rs.Duplicates)
		}
		wantTraces, wantStats := referenceReadSpans([]byte(input))
		if rs != wantStats {
			t.Fatalf("stats = %+v, reference %+v", rs, wantStats)
		}
		if !reflect.DeepEqual(traces, wantTraces) {
			t.Fatalf("traces differ from the reference grouper's:\n%+v\nwant\n%+v", traces, wantTraces)
		}
		visits, fs := Fold(traces)
		wantVisits, wantFS := referenceFold(traces)
		if fs != wantFS || !reflect.DeepEqual(visits, wantVisits) {
			t.Fatalf("fold = %+v %+v, reference %+v %+v", fs, visits, wantFS, wantVisits)
		}
		// Whatever survived must mine without panicking.
		Mine(traces, Options{})
	})
}

// FuzzDecodeSpan is the differential check on the reflection-free decoder:
// for any line it either declines, or it and json.Unmarshal both accept and
// yield deeply equal spans (floats compared exactly).
func FuzzDecodeSpan(f *testing.F) {
	for _, seed := range []string{
		`{"trace":18446744073709551615,"id":3,"parent":2,"level":"resource","name":"DS","start":0.023086301021560094,"duration":1.5e-7,"ok":false,"cause":"resource-down","attrs":{"class":"class A","scenario":"2: St-Br-Ex"}}`,
		`{"trace":0,"id":1,"level":"visit","name":"v","start":0,"duration":0.1,"ok":true,"attrs":{}}`,
		`{}`,
		`{"trace":1,"id":1,"level":"visit","duration":1e999}`,
		`{"trace":1,"id":1,"level":"visit","duration":1.}`,
		`{"trace":1,"id":01,"level":"visit"}`,
		`{"trace":1,"id":1,"level":"visit","start":-0,"duration":-0.0}`,
		`{"trace":1,"id":1,"level":"visit","start":1E+2,"duration":2e-400}`,
		`A`,
		`{"trace":1,"id":1,"level":"visit","name":"A"}`,
		"{\"trace\":1,\"id\":1,\"level\":\"visit\",\"name\":\"caf\u00e9\"}",
		"{\"trace\":1,\"id\":1,\"level\":\"visit\",\"name\":\"\xff\xfe\"}",
		`{"trace":1,"id":1,"level":"visit","name":"a\"b\u003c"}`,
		`{"Trace":1,"id":1,"level":"visit"}`,
		`{"trace":1,"trace":2,"id":1,"level":"visit"}`,
		`{"trace":1,"id":1,"level":"visit","attrs":{"class":"a","class":"b"}}`,
		`{"trace":1,"id":1,"level":"visit","start_ns":5}`,
		`{"trace":1,"id":1,"level":"visit","cause":null,"attrs":null}`,
		`{"trace":1, "id":1,"level":"visit"}`,
		`{"trace":1,"id":1,"level":"visit"} `,
		`{"trace":1,"id":1,"level":"visit"}x`,
		`{"trace":1,"id":1,"level":"visit"}{}`,
		`{"trace":1,"id":9223372036854775808,"level":"visit"}`,
		`{"trace":18446744073709551616,"id":1,"level":"visit"}`,
		`{"trace":1,"id":-1,"parent":1.0,"level":"visit","ok":tru}`,
		`{"trace":1,"id":2,"parent":1,"level":"step","name":"s"}`,
		`{"trace":1,"id":2,"parent":1,"level":"galaxy","name":"s"}`,
		`{"trace":1,"id":2,"parent":1,"level":"Step","name":"s"}`,
	} {
		f.Add([]byte(seed))
	}
	names := make(interner)
	f.Fuzz(func(t *testing.T, line []byte) {
		var fast obs.Span
		if !decodeSpan(line, names, &fast) {
			return
		}
		var want obs.Span
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", line, err)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("%q decoded as\n%+v\nencoding/json gives\n%+v", line, fast, want)
		}
	})
}
