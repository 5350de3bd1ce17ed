package obs

import (
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("jobs_total", "jobs", Label{Key: "kind", Value: "solve"})
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.MustGauge("depth", "queue depth")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}

	// Re-registration returns the same instrument.
	if c2 := r.MustCounter("jobs_total", "jobs", Label{Key: "kind", Value: "solve"}); c2 != c {
		t.Error("re-registration built a second counter")
	}
	// Same name, different labels: a distinct series in the same family.
	c3 := r.MustCounter("jobs_total", "jobs", Label{Key: "kind", Value: "probe"})
	c3.Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE jobs_total counter",
		`jobs_total{kind="probe"} 1`,
		`jobs_total{kind="solve"} 5`,
		"# TYPE depth gauge",
		"depth 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// One HELP/TYPE header per family, even with two series.
	if n := strings.Count(out, "# TYPE jobs_total"); n != 1 {
		t.Errorf("TYPE header rendered %d times", n)
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Counter("9leading_digit", ""); err == nil {
		t.Error("bad metric name accepted")
	}
	if _, err := r.Counter("ok_name", "", Label{Key: "bad-key", Value: "v"}); err == nil {
		t.Error("bad label name accepted")
	}
	if err := r.GaugeFunc("fn", "", nil); err == nil {
		t.Error("nil GaugeFunc accepted")
	}
	r.MustCounter("typed", "")
	if _, err := r.Gauge("typed", ""); err == nil {
		t.Error("type conflict accepted")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	values := map[string]string{
		`a"b\c` + "\n":     `a\"b\\c\n`,
		`\\`:               `\\\\`,
		`""`:               `\"\"`,
		"\n\n":             `\n\n`,
		`\"` + "\n" + `\n`: `\\\"\n\\n`,
		"plain":            "plain",
		"":                 "",
	}
	for v := range values {
		r.MustCounter("esc_total", "", Label{Key: "v", Value: v})
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for v, escaped := range values {
		if want := `esc_total{v="` + escaped + `"} 0` + "\n"; !strings.Contains(sb.String(), want) {
			t.Errorf("value %q: series %q missing from:\n%s", v, want, sb.String())
		}
	}
	// The shared escaper is safe for concurrent registrations (run with
	// -race).
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range values {
				r.MustCounter("esc_total", "", Label{Key: "v", Value: v}).Inc()
			}
		}()
	}
	wg.Wait()
	for v := range values {
		if got := r.MustCounter("esc_total", "", Label{Key: "v", Value: v}).Value(); got != 4 {
			t.Errorf("value %q: counter %d, want 4", v, got)
		}
	}
}

// Registering an existing (name, labels) pair, with the labels in any
// order, returns the instrument registered first.
func TestReregistrationReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	a, b := Label{Key: "route", Value: "evaluate"}, Label{Key: "code", Value: "200"}
	if c1, c2 := r.MustCounter("req_total", "", a, b), r.MustCounter("req_total", "", b, a); c1 != c2 {
		t.Error("counter registered twice")
	}
	if g1, g2 := r.MustGauge("depth", "", a), r.MustGauge("depth", "", a); g1 != g2 {
		t.Error("gauge registered twice")
	}
	if h1, h2 := r.MustHistogram("lat_seconds", "", 1e-5, 2, 24, a), r.MustHistogram("lat_seconds", "", 1e-5, 2, 24, a); h1 != h2 {
		t.Error("histogram registered twice")
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	n := int64(41)
	if err := r.CounterFunc("pull_total", "pulled counter", func() int64 { return n }); err != nil {
		t.Fatal(err)
	}
	if err := r.GaugeFunc("pull_depth", "pulled gauge", func() float64 { return 2.5 }); err != nil {
		t.Fatal(err)
	}
	n = 42
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pull_total 42", "pull_depth 2.5"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("missing %q:\n%s", want, sb.String())
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.MustHistogram("lat_seconds", "latency", 0.1, 10, 4)
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 500} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_sum 506.05",
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram output missing %q:\n%s", want, out)
		}
	}
}

// expositionLine matches every legal non-comment line of the text format:
// name{labels} value.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// TestExpositionFormatParses validates every rendered line against the
// Prometheus text-format grammar — the same property the CI scrape step
// asserts against a live /metrics endpoint.
func TestExpositionFormatParses(t *testing.T) {
	r := NewRegistry()
	r.MustCounter("a_total", "with help text", Label{Key: "x", Value: "1"}).Inc()
	r.MustGauge("b", "").Set(math.Inf(1))
	r.MustHistogram("c_seconds", "hist", 1e-3, 2, 5).Observe(0.02)
	if err := r.GaugeFunc("d", "", func() float64 { return math.NaN() }); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Errorf("bad comment line %q", line)
			}
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("line does not parse as exposition format: %q", line)
		}
	}
}

// TestConcurrentObserveAndRender races writers (counters, gauges, histograms,
// fresh registrations) against renders; run under -race in CI.
func TestConcurrentObserveAndRender(t *testing.T) {
	r := NewRegistry()
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			c := r.MustCounter("con_total", "", Label{Key: "w", Value: string(rune('a' + w))})
			g := r.MustGauge("con_depth", "")
			h := r.MustHistogram("con_seconds", "", 1e-3, 2, 10)
			for i := 0; i < 2000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) * 1e-3)
				if i%500 == 0 {
					// Registration on the hot path must also be race-free.
					r.MustCounter("con_total", "", Label{Key: "w", Value: "shared"}).Inc()
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var renderer sync.WaitGroup
	renderer.Add(1)
	go func() {
		defer renderer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
			// Overlap with the writers is what matters, not render count;
			// yield so this loop cannot starve paced tests in other packages.
			time.Sleep(200 * time.Microsecond)
		}
	}()
	writers.Wait()
	close(stop)
	renderer.Wait()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "con_total{") {
			total++
		}
	}
	if total != 5 {
		t.Errorf("rendered %d con_total series, want 5:\n%s", total, sb.String())
	}
}
