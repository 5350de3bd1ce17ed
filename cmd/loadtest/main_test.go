package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func runCapture(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestRunValidation(t *testing.T) {
	for name, args := range map[string][]string{
		"bad flag":      {"-bogus"},
		"bad class":     {"-class", "c"},
		"bad mode":      {"-mode", "chaos"},
		"bad transport": {"-transport", "carrier-pigeon"},
		"bad visits":    {"-visits", "0"},
		"NaN scale":     {"-scale", "NaN"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("%s: run(%v) succeeded", name, args)
		}
	}
}

func TestSteadyRun(t *testing.T) {
	out := runCapture(t, "-visits", "3000", "-class", "a")
	for _, want := range []string{
		"class A", "steady state, 3000 visits",
		"analytic eq. (10)", "within 95% CI",
		"measured vs Table 6", "Browse", "Pay",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("steady output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "class B") {
		t.Error("-class a printed class B results")
	}
}

func TestBothClasses(t *testing.T) {
	out := runCapture(t, "-visits", "1500")
	if !strings.Contains(out, "class A") || !strings.Contains(out, "class B") {
		t.Errorf("default run missing a class:\n%s", out)
	}
}

func TestCampaignRun(t *testing.T) {
	out := runCapture(t,
		"-visits", "1500", "-class", "b", "-mode", "campaign",
		"-mttr", "45", "-horizon", "1000", "-steps")
	for _, want := range []string{
		"campaign \"renewal\" (horizon 1000 s, MTTR 45 s)",
		"n/a (campaign faults need not match steady state)",
		"Step latency quantiles",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("campaign output missing %q:\n%s", want, out)
		}
	}
}

func TestHTTPTransportRun(t *testing.T) {
	out := runCapture(t, "-visits", "500", "-class", "a", "-transport", "http")
	if !strings.Contains(out, "steady state, 500 visits") {
		t.Errorf("http output:\n%s", out)
	}
}

func TestOverloadRun(t *testing.T) {
	if testing.Short() {
		t.Skip("paced overload sweep in -short mode")
	}
	out := runCapture(t, "-overload", "-visits", "6000")
	for _, want := range []string{"overload sweep", "M/M/4/10", "800/s", "analytic p_K"} {
		if !strings.Contains(out, want) {
			t.Errorf("overload output missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full smoke run in -short mode")
	}
	out := runCapture(t, "-smoke")
	for _, want := range []string{"110000 visits total", "within CI"} {
		if !strings.Contains(out, want) {
			t.Errorf("smoke output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "OUTSIDE CI") {
		t.Errorf("smoke verdict OUTSIDE CI:\n%s", out)
	}
}

// TestControllerSmoke runs the -controller CI gate: the closed-loop
// controller must hold the SLO through the load ramp and zone outage
// (measured CI above target) with real scale activity, while every static
// size in the sweep violates it.
func TestControllerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full controller schedule in -short mode")
	}
	out := runCapture(t, "-controller", "-smoke")
	for _, want := range []string{
		"closed-loop controller run",
		"scale-out", "scale-in",
		"SLO held",
		"static NW=8", "SLO VIOLATED",
		"controller smoke passed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("controller output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "guardrail: ") {
		t.Errorf("controller hit the guardrail on a healthy run:\n%s", out)
	}
}

// TestControllerDecisionsDeterministic runs the controller schedule twice
// with the same seed and expects identical decision traces and tables —
// the integer-count signal path makes decisions scheduling-independent.
func TestControllerDecisionsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two controller schedules in -short mode")
	}
	a := runCapture(t, "-controller", "-seed", "3")
	b := runCapture(t, "-controller", "-seed", "3")
	if a != b {
		t.Errorf("same-seed controller runs diverge:\nfirst:\n%s\nsecond:\n%s", a, b)
	}
}

// TestServeRun brings up the observability endpoint with -serve, scrapes
// /metrics and /traces while the run holds, and checks the drift verdict in
// the printed report.
func TestServeRun(t *testing.T) {
	addrCh := make(chan string, 1)
	onServeStarted = func(a string) { addrCh <- a }
	defer func() { onServeStarted = nil }()

	var sb strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-visits", "4000", "-class", "a",
			"-serve", "127.0.0.1:0", "-hold", "4s",
		}, &sb)
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("run finished before serving: %v\noutput:\n%s", err, sb.String())
	}

	// Poll /metrics until the run's series appear (the hold keeps the
	// endpoint alive after the visits finish).
	deadline := time.Now().Add(10 * time.Second)
	var metrics string
	for {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil {
				metrics = string(body)
				if strings.Contains(metrics, `ta_visits_total{class="class A"} 4000`) {
					break
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never converged:\n%s", metrics)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, want := range []string{
		"# TYPE ta_visit_duration_seconds histogram",
		"testbed_fault_snapshots_total 4000",
		`ta_drift_predicted_availability{class="class A"}`,
		"obs_uptime_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The kernel series are exactly the set every binary publishes.
	for _, name := range obs.KernelSeries() {
		if !strings.Contains(metrics, "\n"+name+" ") {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if n := strings.Count(metrics, "# TYPE kernel_"); n != len(obs.KernelSeries()) {
		t.Errorf("/metrics has %d kernel_* families, want %d", n, len(obs.KernelSeries()))
	}
	resp, err := http.Get("http://" + addr + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	traces, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(traces), `"level":"visit"`) {
		t.Errorf("/traces missing visit spans:\n%.500s", traces)
	}

	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"observability plane on http://",
		"live drift detector",
		"in band",
		"holding observability endpoint",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "DRIFTING") {
		t.Errorf("healthy baseline reported drift:\n%s", out)
	}
}
