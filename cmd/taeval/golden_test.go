package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestGoldenTables locks the rendered output of the deterministic analytic
// experiments byte for byte. The numbers are closed-form (no simulation), so
// any drift means a real change to either a model or the table renderer.
// Regenerate after an intentional change with:
//
//	go test ./cmd/taeval -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	for _, name := range []string{"table2", "table6", "table8", "figure2", "figures3to6", "figure11",
		"ablation-maintenance", "ablation-repairdist", "first-year", "load-derivation", "mttf", "validate-ws"} {
		t.Run(name, func(t *testing.T) {
			got := runCapture(t, "-experiment", name)
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
					name, path, got, diffHint(got, string(want)))
			}
		})
	}
}

// diffHint returns the golden text with a marker at the first differing line,
// enough to locate a drift without a full diff implementation.
func diffHint(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range wl {
		if i >= len(gl) || gl[i] != wl[i] {
			wl[i] = wl[i] + "   <-- first difference"
			break
		}
	}
	return strings.Join(wl, "\n")
}
