package obs

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/ctmc"
)

// scrapeKernels renders reg and returns its kernel_* samples by name.
func scrapeKernels(t *testing.T, reg *Registry) map[string]int64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "kernel_") {
			continue
		}
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		got[name] = v
	}
	return got
}

// TestRegisterKernels pins the kernel_* series set that availd, loadtest
// and taeval all publish: one counter per KernelStats field of the four
// solver packages, each read at scrape time.
func TestRegisterKernels(t *testing.T) {
	reg := NewRegistry()
	if err := RegisterKernels(reg); err != nil {
		t.Fatal(err)
	}
	names := KernelSeries()
	perPackage := map[string]int{}
	for _, name := range names {
		if !strings.HasSuffix(name, "_total") {
			t.Errorf("%s: counter name lacks _total", name)
		}
		perPackage[strings.Split(name, "_")[1]]++
	}
	want := map[string]int{"ctmc": 6, "dtmc": 4, "gspn": 4, "faulttree": 3}
	for pkg, n := range want {
		if perPackage[pkg] != n {
			t.Errorf("%s publishes %d series, want %d", pkg, perPackage[pkg], n)
		}
	}
	if len(names) != 17 {
		t.Errorf("%d kernel series, want 17: %v", len(names), names)
	}

	before := scrapeKernels(t, reg)
	if len(before) != len(names) {
		t.Fatalf("scrape has %d kernel_* samples, want %d: %v", len(before), len(names), before)
	}
	for _, name := range names {
		if _, ok := before[name]; !ok {
			t.Errorf("scrape missing %s", name)
		}
	}

	// One GTH solve moves exactly its own series.
	chain := ctmc.New()
	if err := chain.AddTransition("up", "down", 1e-3); err != nil {
		t.Fatal(err)
	}
	if err := chain.AddTransition("down", "up", 1); err != nil {
		t.Fatal(err)
	}
	cc, err := chain.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.SteadyState(); err != nil {
		t.Fatal(err)
	}
	after := scrapeKernels(t, reg)
	for _, name := range names {
		wantDelta := int64(0)
		if name == "kernel_ctmc_steady_solves_total" {
			wantDelta = 1
		}
		if d := after[name] - before[name]; d != wantDelta {
			t.Errorf("%s advanced by %d, want %d", name, d, wantDelta)
		}
	}
}
