package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// stepVisit is a two-function visit with per-step traces: Home passes, and
// Search, when ok is false, fails on its second service call.
func stepVisit(id uint64, ok bool) telemetry.VisitTrace {
	tr := telemetry.VisitTrace{
		ID: id, Class: "class B", Scenario: "3: St-Se-Ex",
		Start: 1.5, Duration: 0.75, OK: true,
		Functions: []telemetry.FunctionTrace{
			{Function: "Home", OK: true, Duration: 0.25, Steps: []telemetry.StepTrace{
				{Function: "Home", Step: "ws-receive", Services: []string{"Net", "LAN", "WS"}, At: 1.5, Latency: 0.25, OK: true},
			}},
			{Function: "Search", OK: true, Duration: 0.5, Steps: []telemetry.StepTrace{
				{Function: "Search", Step: "as-query", Services: []string{"AS", "DS"}, At: 1.75, Latency: 0.5, OK: true},
			}},
		},
	}
	if !ok {
		fn, st := &tr.Functions[1], &tr.Functions[1].Steps[0]
		st.OK, st.Cause, st.FailedService = false, telemetry.CauseResourceDown, "DS"
		fn.OK, fn.Cause, fn.FailedService = false, st.Cause, st.FailedService
		tr.OK, tr.Cause, tr.FailedService = false, st.Cause, st.FailedService
	}
	return tr
}

// ringVisits covers passing and failing visits with and without steps.
func ringVisits() []telemetry.VisitTrace {
	return []telemetry.VisitTrace{bridgeVisit(1, true), stepVisit(2, false), bridgeVisit(3, false), stepVisit(4, true)}
}

// encodeTraces is the JSONL of the given span traces.
func encodeTraces(t *testing.T, traces []Trace) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			if err := enc.Encode(sp); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.String()
}

func writeJSONL(t *testing.T, tracer *Tracer, limit int) string {
	t.Helper()
	var sb strings.Builder
	if err := tracer.WriteJSONLLimit(&sb, limit); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestTracerVisitsReadAsVisitSpans records visits through the bridge and
// reads them back through Traces, Snapshot and WriteJSONLLimit: every read
// must equal VisitSpans of the recorded visits, byte for byte.
func TestTracerVisitsReadAsVisitSpans(t *testing.T) {
	visits := ringVisits()
	tracer := NewTracer(len(visits))
	b := NewBridge(nil, tracer, nil)
	want := make([]Trace, len(visits))
	for i, tr := range visits {
		b.OnVisit(tr)
		want[i] = VisitSpans(tr)
	}
	if got := tracer.Traces(); !reflect.DeepEqual(got, want) {
		t.Errorf("Traces() = %+v, want %+v", got, want)
	}
	for n := 0; n <= len(visits); n++ {
		tail := want
		if n > 0 {
			tail = want[len(want)-n:]
		}
		if got := tracer.Snapshot(n); !reflect.DeepEqual(got, tail) {
			t.Errorf("Snapshot(%d) = %+v, want %+v", n, got, tail)
		}
		if got, w := writeJSONL(t, tracer, n), encodeTraces(t, tail); got != w {
			t.Errorf("WriteJSONLLimit(%d):\n%s\nwant:\n%s", n, got, w)
		}
	}
}

// TestTracerWrapMatchesPrebuiltRing records one stream of visits and span
// traces, past several wrap-arounds, into a tracer that keeps visits and
// into one handed every span tree prebuilt: after each record both must
// retain the same traces in the same order and count the same records.
func TestTracerWrapMatchesPrebuiltRing(t *testing.T) {
	lazy, built := NewTracer(3), NewTracer(3)
	for i := 0; i < 11; i++ {
		if i%4 == 3 {
			tr := spanTrace(uint64(100+i), fmt.Sprintf("request-%d", i))
			lazy.Record(tr)
			built.Record(tr)
		} else {
			v := ringVisits()[i%4]
			v.ID = uint64(i)
			lazy.RecordVisit(v)
			built.Record(VisitSpans(v))
		}
		if g, w := lazy.Recorded(), built.Recorded(); g != w || g != int64(i+1) {
			t.Fatalf("after record %d: Recorded() = %d and %d", i, g, w)
		}
		if g, w := lazy.Traces(), built.Traces(); !reflect.DeepEqual(g, w) {
			t.Fatalf("after record %d: Traces() = %+v, prebuilt %+v", i, g, w)
		}
		for n := 0; n <= 4; n++ {
			if g, w := writeJSONL(t, lazy, n), writeJSONL(t, built, n); g != w {
				t.Fatalf("after record %d: WriteJSONLLimit(%d):\n%s\nprebuilt:\n%s", i, n, g, w)
			}
		}
	}
	var ids []uint64
	for _, tr := range lazy.Traces() {
		ids = append(ids, tr.Spans[0].Trace)
	}
	if want := []uint64{8, 9, 10}; !reflect.DeepEqual(ids, want) {
		t.Errorf("retained traces %v, want %v", ids, want)
	}
}

// TestTracerConcurrentVisitsAndReads records visits from several goroutines
// while /traces is read (run it under -race): every read must parse, and
// once the visits stop, /traces must serve WriteJSONL's bytes of a full ring.
func TestTracerConcurrentVisitsAndReads(t *testing.T) {
	tracer := NewTracer(64)
	srv := NewServer(NewRegistry(), tracer)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	b := NewBridge(NewRegistry(), tracer, nil)

	const workers, perWorker = 4, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v := ringVisits()[i%4]
				v.ID = uint64(w*perWorker + i)
				b.OnVisit(v)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for reads := 0; ; reads++ {
		select {
		case <-done:
			if got := tracer.Recorded(); got != workers*perWorker {
				t.Errorf("Recorded() = %d, want %d", got, workers*perWorker)
			}
			code, body, _ := get(t, "http://"+addr+"/traces")
			if code != http.StatusOK || body != writeJSONL(t, tracer, 0) {
				t.Errorf("final /traces = %d, differs from WriteJSONL", code)
			}
			if n := len(tracer.Traces()); n != 64 {
				t.Errorf("ring holds %d traces, want 64", n)
			}
			return
		default:
		}
		code, body, _ := get(t, fmt.Sprintf("http://%s/traces?limit=%d", addr, 1+reads%70))
		if code != http.StatusOK {
			t.Fatalf("/traces = %d", code)
		}
		for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
			if line == "" {
				continue
			}
			var sp Span
			if err := json.Unmarshal([]byte(line), &sp); err != nil {
				t.Fatalf("read %d: %v in %q", reads, err, line)
			}
		}
	}
}
