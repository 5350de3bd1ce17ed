package main

import (
	"strings"
	"testing"

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

func TestListExperiments(t *testing.T) {
	out := runCapture(t, "-list")
	for _, want := range []string{"table1", "table8", "figure11", "figure13", "validate-ws"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-experiment", "nope"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

func TestBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-bogus"}, &sb); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestTableExperiments(t *testing.T) {
	checks := map[string][]string{
		"table1": {"1: St-Ho-Ex", "26.7", "class B"},
		"table2": {"Home", "Flight", "x"},
		"table3": {"0.99999", "A_PS"},
		"table4": {"0.996", "0.999984"},
		"table5": {"0.999995587"},
		"table6": {"Browse", "0.988419594"},
		"table7": {"q23 / q24 / q45 / q47", "0.98"},
		"table8": {"0.84227", "0.84235", "0.97883"},
	}
	for name, wants := range checks {
		out := runCapture(t, "-experiment", name)
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", name, want, out)
			}
		}
	}
}

func TestFigureExperiments(t *testing.T) {
	checks := map[string][]string{
		"figures3to6":  {"AS+DS+LAN+Net+WS", "0.4800"},
		"figures9to10": {"4 servers up", "y4 (manual reconfiguration)"},
		"figure11":     {"Figure 11", "α=150/s", "N_W"},
		"figure12":     {"Figure 12", "c=0.98"},
		"figure13":     {"SC4 (Pay)", "lost transactions/yr"},
	}
	for name, wants := range checks {
		out := runCapture(t, "-experiment", name)
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q", name, want)
			}
		}
	}
}

func TestFigure2Calibration(t *testing.T) {
	if testing.Short() {
		t.Skip("fit is slow in -short mode")
	}
	out := runCapture(t, "-experiment", "figure2")
	if !strings.Contains(out, "RMS residual") {
		t.Error("missing residual")
	}
	// Both classes calibrated.
	if strings.Count(out, "Achieved scenario probabilities") != 2 {
		t.Error("expected two calibration blocks")
	}
}

func TestValidationExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("simulations are slow in -short mode")
	}
	out := runCapture(t, "-experiment", "validate-ws")
	if !strings.Contains(out, "0.9999955869") || !strings.Contains(out, "joint-process simulation") {
		t.Errorf("validate-ws output:\n%s", out)
	}
	if again := runCapture(t, "-experiment", "validate-ws"); again != out {
		t.Errorf("validate-ws is not deterministic:\n%s\n---\n%s", out, again)
	}
}

// TestValidateWS checks the A(WS) cross-validation rows: the closed form,
// the CTMC and GSPN solves at the Table 7 point, and the closed form against
// the joint-process simulation at the accelerated point.
func TestValidateWS(t *testing.T) {
	out := runCapture(t, "-experiment", "validate-ws")
	for _, want := range []string{
		"Table 7          closed form (eqs. 3, 6-9)            0.9999955869",
		"Table 7          compiled CTMC solver (GTH)           0.9999955869",
		"Table 7          stochastic Petri net (GSPN)          0.9999955869",
		"accelerated      closed form                          0.977097",
		"accelerated      compiled CTMC solver (GTH)           0.977097",
		"accelerated      joint-process simulation (±1.7e-03)  0.977596",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("validate-ws output missing %q:\n%s", want, out)
		}
	}
}

// TestValidateWSDeterministic checks that the seeded farm simulation gives
// byte-identical reports across runs, in both table and CSV form.
func TestValidateWSDeterministic(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "validate-ws"},
		{"-experiment", "validate-ws", "-csv"},
	} {
		a, b := runCapture(t, args...), runCapture(t, args...)
		if a != b {
			t.Errorf("%v is not deterministic:\n%s\n---\n%s", args, a, b)
		}
	}
}

// TestValidateUser checks the A(user) cross-validation: the hierarchy,
// equation (10), the hierarchy on the fitted Figure 2 profile and the visit
// simulation, for both classes, with the fitted-profile and simulated
// figures pinned, byte-identical across runs.
func TestValidateUser(t *testing.T) {
	if testing.Short() {
		t.Skip("simulations are slow in -short mode")
	}
	out := runCapture(t, "-experiment", "validate-user")
	for _, want := range []string{
		"class A  hierarchy evaluation         0.9788174120",
		"class A  equation (10)                0.9788174120",
		"class A  hierarchy on fitted profile  0.9788177035",
		"class A  visit simulation (±5.2e-04)  0.9784566667",
		"class B  hierarchy evaluation         0.9648163884",
		"class B  equation (10)                0.9648163884",
		"class B  hierarchy on fitted profile  0.9648230011",
		"class B  visit simulation (±6.5e-04)  0.9652933333",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("validate-user output missing %q:\n%s", want, out)
		}
	}
	if again := runCapture(t, "-experiment", "validate-user"); again != out {
		t.Errorf("validate-user is not deterministic:\n%s\n---\n%s", out, again)
	}
}

func TestAblationExperiments(t *testing.T) {
	out := runCapture(t, "-experiment", "ablation-coverage")
	if !strings.Contains(out, "0.98") || !strings.Contains(out, "UA(WS)") {
		t.Errorf("ablation-coverage output:\n%s", out)
	}
	out = runCapture(t, "-experiment", "ablation-buffer")
	if !strings.Contains(out, "structural part") {
		t.Errorf("ablation-buffer output:\n%s", out)
	}
	out = runCapture(t, "-experiment", "future-latency")
	if !strings.Contains(out, "deadline") {
		t.Errorf("future-latency output:\n%s", out)
	}
	out = runCapture(t, "-experiment", "importance")
	if !strings.Contains(out, "A_net") || !strings.Contains(out, "1.0000") {
		t.Errorf("importance output:\n%s", out)
	}
}

func TestCSVOutput(t *testing.T) {
	out := runCapture(t, "-experiment", "table8", "-csv")
	if !strings.Contains(out, "N,A(class A),paper A,A(class B),paper B") {
		t.Errorf("CSV header missing:\n%s", out)
	}
}

func TestExtensionExperiments(t *testing.T) {
	checks := map[string][]string{
		"ablation-maintenance": {"shared repair, immediate (paper)", "dedicated repair per server", "deferred, batch at 4 failed"},
		"lan-topologies":       {"ring (link 0.9950)", "dual ring", "A_LAN"},
		"cutsets":              {"Flight-1-fail AND Flight-2-fail", "LAN-fail"},
		"mttf":                 {"perfect coverage", "imperfect (c=0.98"},
	}
	for name, wants := range checks {
		out := runCapture(t, "-experiment", name)
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", name, want, out)
			}
		}
	}
}

func TestLoadDerivationExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("profile fits are slow in -short mode")
	}
	out := runCapture(t, "-experiment", "load-derivation")
	for _, want := range []string{"E[invocations/visit]", "class A", "class B"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestSecondWaveExperiments(t *testing.T) {
	checks := map[string][]string{
		"population-mix":      {"share of class B", "lost revenue"},
		"first-year":          {"first-year (h)", "steady-state bound"},
		"ablation-repairdist": {"exponential (paper)", "Erlang-16"},
	}
	for name, wants := range checks {
		out := runCapture(t, "-experiment", name)
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", name, want, out)
			}
		}
	}
}

func TestThirdWaveExperiments(t *testing.T) {
	checks := map[string][]string{
		"architectures":       {"basic", "redundant", "downtime B"},
		"tornado":             {"N_ext", "swing"},
		"future-latency-user": {"A(user, class B)", "deadline (ms)"},
	}
	for name, wants := range checks {
		out := runCapture(t, "-experiment", name)
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", name, want, out)
			}
		}
	}
}

// TestMetricsFlag checks the -metrics diagnostic dump: kernel counters after
// a CTMC-driven experiment, pool utilization after a grid experiment, and the
// deterministic composer cache line in the figure output.
func TestMetricsFlag(t *testing.T) {
	out := runCapture(t, "-experiment", "figure12", "-workers", "2", "-metrics")
	for _, want := range []string{
		"composer caches over the 90-cell grid: repair 60 hits / 30 misses, loss 465 hits / 30 misses",
		"\n# TYPE kernel_",
		"\nsweep_points 90\n",
		"\nsweep_completed 90\n",
		"\nsweep_workers 2\n",
		`sweep_busy_seconds{worker="1"} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-metrics output missing %q:\n%s", want, out)
		}
	}
	// The kernel series are exactly the set every binary publishes.
	for _, name := range obs.KernelSeries() {
		if !strings.Contains(out, "\n"+name+" ") {
			t.Errorf("-metrics output missing %s", name)
		}
	}
	if n := strings.Count(out, "# TYPE kernel_"); n != len(obs.KernelSeries()) {
		t.Errorf("-metrics output has %d kernel_* families, want %d", n, len(obs.KernelSeries()))
	}

	// Kernel counters are cumulative across the process (other tests may have
	// already run compiled solves), so only assert the counter is nonzero.
	out = runCapture(t, "-experiment", "validate-ws", "-metrics")
	if !strings.Contains(out, "\nkernel_ctmc_steady_solves_total ") ||
		strings.Contains(out, "\nkernel_ctmc_steady_solves_total 0\n") {
		t.Errorf("validate-ws left the GTH counter at zero:\n%s", out)
	}
	// Without -metrics the diagnostic scrape stays out of the output.
	out = runCapture(t, "-experiment", "figure12", "-workers", "2")
	if strings.Contains(out, "kernel_") || strings.Contains(out, "sweep_") {
		t.Errorf("metrics printed without -metrics:\n%s", out)
	}
}
