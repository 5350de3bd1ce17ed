package main

import (
	"io"
	"reflect"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable8Row-8         	     100	   2717941 ns/op	  211256 B/op	    3037 allocs/op
BenchmarkFigure11Grid-8      	      50	    678530 ns/op	  253696 B/op	    3019 allocs/op
BenchmarkGTHSteadyState      	    1000	    212767 ns/op
BenchmarkTraceMine-2         	      36	  55710853 ns/op	 117.42 MB/s	    870927 spans/s	29158836 B/op	  116803 allocs/op
BenchmarkOddOutput some benchmark chatter that is not a result line
PASS
ok  	repro	1.234s
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" {
		t.Errorf("goos/goarch = %q/%q", doc.Goos, doc.Goarch)
	}
	if !strings.Contains(doc.CPU, "Xeon") {
		t.Errorf("cpu = %q", doc.CPU)
	}
	if len(doc.Results) != 4 {
		t.Fatalf("got %d results, want 4: %+v", len(doc.Results), doc.Results)
	}
	r := doc.Results[0]
	if r.Name != "BenchmarkTable8Row" || r.Procs != 8 || r.Iterations != 100 {
		t.Errorf("result 0 = %+v", r)
	}
	if r.NsPerOp != 2717941 || r.BytesPerOp != 211256 || r.AllocsPerOp != 3037 {
		t.Errorf("result 0 metrics = %+v", r)
	}
	if r.Metrics != nil {
		t.Errorf("result 0 custom metrics = %v, want none", r.Metrics)
	}
	// No -benchmem columns and no -procs suffix.
	r = doc.Results[2]
	if r.Name != "BenchmarkGTHSteadyState" || r.Procs != 1 || r.BytesPerOp != 0 || r.AllocsPerOp != 0 {
		t.Errorf("result 2 = %+v", r)
	}
	// Custom metrics are kept by unit, beside the -benchmem columns.
	r = doc.Results[3]
	want := map[string]float64{"MB/s": 117.42, "spans/s": 870927}
	if r.NsPerOp != 55710853 || r.BytesPerOp != 29158836 || r.AllocsPerOp != 116803 || !reflect.DeepEqual(r.Metrics, want) {
		t.Errorf("result 3 = %+v, want metrics %v", r, want)
	}
}

func TestParseEmpty(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok repro 0.1s\n")); err == nil {
		t.Fatal("empty benchmark output accepted")
	}
}

func TestParseBenchLineMalformed(t *testing.T) {
	// A line starting with Benchmark but without ns/op is chatter, not an error.
	if _, ok, err := parseBenchLine("BenchmarkFoo printed something"); ok || err != nil {
		t.Fatalf("chatter line: ok=%v err=%v", ok, err)
	}
	// A malformed iteration count is a real error.
	if _, _, err := parseBenchLine("BenchmarkFoo-4 xyz 123 ns/op"); err == nil {
		t.Fatal("bad iteration count accepted")
	}
}

func compareDocs(names []string, ns ...float64) *Document {
	d := &Document{}
	for i, n := range names {
		d.Results = append(d.Results, Result{Name: n, Procs: 8, Iterations: 100, NsPerOp: ns[i]})
	}
	return d
}

func TestCompare(t *testing.T) {
	base := compareDocs([]string{"BenchmarkA", "BenchmarkB", "BenchmarkGone"}, 1000, 2000, 500)

	// Within threshold: +20% on A, -10% on B, one new, one gone.
	fresh := compareDocs([]string{"BenchmarkA", "BenchmarkB", "BenchmarkNew"}, 1200, 1800, 50)
	var sb strings.Builder
	if err := Compare(&sb, base, fresh, 0.25); err != nil {
		t.Fatalf("Compare within threshold: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"BenchmarkA", "+20.0%", "ok",
		"BenchmarkNew", "no baseline",
		"BenchmarkGone", "present in baseline only",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "REGRESSED") {
		t.Errorf("no regression expected:\n%s", out)
	}

	// Past threshold: +30% on A fails the gate and names the benchmark.
	fresh = compareDocs([]string{"BenchmarkA", "BenchmarkB"}, 1300, 2000)
	sb.Reset()
	err := Compare(&sb, base, fresh, 0.25)
	if err == nil {
		t.Fatalf("Compare accepted a 30%% regression:\n%s", sb.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkA") {
		t.Errorf("error does not name the regression: %v", err)
	}
	if !strings.Contains(sb.String(), "REGRESSED") {
		t.Errorf("output missing REGRESSED:\n%s", sb.String())
	}

	// No overlap at all is an error, not a silent pass.
	fresh = compareDocs([]string{"BenchmarkOther"}, 10)
	if err := Compare(io.Discard, base, fresh, 0.25); err == nil {
		t.Error("Compare passed with zero matched benchmarks")
	}

	if err := Compare(io.Discard, base, base, -1); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestCompareAllocs(t *testing.T) {
	doc := func(allocs ...int64) *Document {
		d := compareDocs([]string{"BenchmarkA", "BenchmarkB"}, 1000, 1000)
		for i, a := range allocs {
			d.Results[i].AllocsPerOp = a
		}
		return d
	}
	base := doc(100, 0)

	// Within threshold, fewer, and growth over a zero baseline all pass.
	for _, fresh := range []*Document{doc(125, 0), doc(10, 0), doc(100, 500)} {
		var sb strings.Builder
		if err := Compare(&sb, base, fresh, 0.25); err != nil {
			t.Fatalf("Compare: %v\n%s", err, sb.String())
		}
		if strings.Contains(sb.String(), "REGRESSED") {
			t.Errorf("no regression expected:\n%s", sb.String())
		}
	}

	// +26% allocs/op at unchanged ns/op fails the gate and names the
	// benchmark.
	var sb strings.Builder
	err := Compare(&sb, base, doc(126, 0), 0.25)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkA") || strings.Contains(err.Error(), "BenchmarkB") {
		t.Fatalf("Compare = %v, want BenchmarkA alone regressed:\n%s", err, sb.String())
	}
	for _, want := range []string{"100 -> 126 allocs/op", "+26.0%", "REGRESSED"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q:\n%s", want, sb.String())
		}
	}

	// At a different GOMAXPROCS the allocations are reported, not gated.
	fresh := doc(300, 0)
	fresh.Results[0].Procs = 4
	sb.Reset()
	if err := Compare(&sb, base, fresh, 0.25); err != nil {
		t.Fatalf("Compare gated allocs across procs: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "procs 8 -> 4, not gated") {
		t.Errorf("output does not say the allocs were not gated:\n%s", sb.String())
	}
}
