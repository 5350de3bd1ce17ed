package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeModel(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const twoStateModel = `{
  "transitions": [
    {"from": "up",   "to": "down", "rate": 0.001},
    {"from": "down", "to": "up",   "rate": 0.5}
  ]
}`

func runCapture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	return sb.String(), err
}

func TestSteadyState(t *testing.T) {
	path := writeModel(t, twoStateModel)
	out, err := runCapture(t, path)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// π(up) = 0.5/0.501 ≈ 0.998004.
	if !strings.Contains(out, "9.980040e-01") {
		t.Errorf("missing steady-state value:\n%s", out)
	}
}

func TestTransient(t *testing.T) {
	path := writeModel(t, twoStateModel)
	out, err := runCapture(t, "-transient", "1", "-initial", "up", path)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, `Distribution at t=1 starting from "up"`) {
		t.Errorf("missing transient block:\n%s", out)
	}
}

func TestTransientRequiresInitial(t *testing.T) {
	path := writeModel(t, twoStateModel)
	if _, err := runCapture(t, "-transient", "1", path); err == nil {
		t.Error("missing -initial accepted")
	}
}

func TestMTTA(t *testing.T) {
	path := writeModel(t, `{"transitions":[{"from":"up","to":"down","rate":0.25}]}`)
	out, err := runCapture(t, "-mtta", "down", path)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// MTTF = 1/0.25 = 4.
	if !strings.Contains(out, "4") || !strings.Contains(out, "up") {
		t.Errorf("MTTA output:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	if _, err := runCapture(t); err == nil {
		t.Error("missing file argument accepted")
	}
	if _, err := runCapture(t, "/nonexistent/model.json"); err == nil {
		t.Error("missing file accepted")
	}
	bad := writeModel(t, `{"transitions":[{"from":"a","to":"a","rate":1}]}`)
	if _, err := runCapture(t, bad); err == nil {
		t.Error("self-loop model accepted")
	}
}

func TestDOTOutput(t *testing.T) {
	path := writeModel(t, twoStateModel)
	out, err := runCapture(t, "-dot", path)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"digraph ctmc", `"up" -> "down"`, "π="} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

// TestGoldenOutputs pins the full rendered output of the three-state model
// in testdata for the steady-state table, the transient table, the DOT
// rendering and the mean-time-to-absorption table, byte for byte.
func TestGoldenOutputs(t *testing.T) {
	const model = "testdata/three.json"
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"steady.golden", []string{model}},
		{"transient.golden", []string{"-transient", "1", "-initial", "up", model}},
		{"dot.golden", []string{"-dot", model}},
		{"mtta.golden", []string{"-mtta", "down", model}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			got, err := runCapture(t, tc.args...)
			if err != nil {
				t.Fatalf("run %v: %v", tc.args, err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("ctmcsolve %v drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", tc.args, tc.golden, got, want)
			}
		})
	}
}
