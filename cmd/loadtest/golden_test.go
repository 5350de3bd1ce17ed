package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/testbed"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// TestCampaignPresetGoldens runs every -campaign preset single-worker (float
// accumulation order, and therefore the rendered tables, are deterministic
// only with one worker) and compares the full report byte-for-byte against
// the checked-in golden output. Regenerate with: go test ./cmd/loadtest
// -run TestCampaignPresetGoldens -update
func TestCampaignPresetGoldens(t *testing.T) {
	for _, preset := range testbed.CampaignPresets() {
		t.Run(preset, func(t *testing.T) {
			out := runCapture(t,
				"-visits", "800", "-class", "a", "-workers", "1", "-seed", "7",
				"-mode", "campaign", "-campaign", preset,
				"-mttr", "45", "-horizon", "1000")
			golden := filepath.Join("testdata", "campaign_"+preset+".golden")
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if out != string(want) {
				t.Errorf("output diverges from %s (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s",
					golden, out, want)
			}
		})
	}
}

func TestCampaignPresetUnknown(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-mode", "campaign", "-campaign", "bogus"}, &sb)
	if err == nil {
		t.Fatal("unknown preset accepted")
	}
	if !strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), "renewal") {
		t.Errorf("error %q should name the bad preset and the available ones", err)
	}
}

// TestDiscoveryGateSpanGolden runs the span export of CI's trace-mining
// discovery gate and pins its bytes to a checked-in digest. Workers finish
// visits in any order, so the file's traces are sorted first; each trace's
// lines, from its visit span on, keep their written order. Regenerate with:
// go test ./cmd/loadtest -run TestDiscoveryGateSpanGolden -update
func TestDiscoveryGateSpanGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("exports 12,000 visits of spans")
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := run([]string{"-visits", "6000", "-steps", "-seed", "2", "-serve", "127.0.0.1:0",
		"-trace-ring", "13000", "-trace-out", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var traces [][]byte
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if bytes.Contains(line, []byte(`"level":"visit"`)) || len(traces) == 0 {
			traces = append(traces, nil)
		}
		traces[len(traces)-1] = append(traces[len(traces)-1], line...)
	}
	sort.Slice(traces, func(i, j int) bool { return bytes.Compare(traces[i], traces[j]) < 0 })
	h := sha256.New()
	for _, tr := range traces {
		h.Write(tr)
	}
	got := fmt.Sprintf("traces %d\nspans %d\nbytes %d\nsha256 %x\n",
		len(traces), bytes.Count(raw, []byte("\n")), len(raw), h.Sum(nil))

	golden := filepath.Join("testdata", "discovery_spans.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("span export diverges from %s:\ngot:\n%swant:\n%s", golden, got, want)
	}
}
