package testbed

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/travelagency"
)

var updateGolden = flag.Bool("update", false, "rewrite the steady visit-stream golden")

// goldenStreamVisits is how many visits each class runs in
// TestSteadyVisitStreamGolden.
const goldenStreamVisits = 300

// streamDigest runs one class's steady-plane visits, steps kept, and returns
// the SHA-256 of the visit traces, ordered by ID and JSON-encoded. JSON
// writes each float in its shortest round-tripping form, so the digest moves
// with any bit of any recorded value.
func streamDigest(t *testing.T, opts Options, class travelagency.UserClass, workers int) string {
	t.Helper()
	c, err := New(travelagency.DefaultParams(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var mu sync.Mutex
	var got []telemetry.VisitTrace
	col := telemetry.NewCollector(0)
	col.SetOnRecord(func(tr telemetry.VisitTrace) {
		mu.Lock()
		got = append(got, tr)
		mu.Unlock()
	})
	g := LoadGen{Cluster: c, Class: class, Visits: goldenStreamVisits, Workers: workers,
		Seed: 5, Offset: 1 << 30, KeepSteps: true}
	if err := g.Run(col); err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
	raw, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestSteadyVisitStreamGolden pins the steady-plane visit stream of both
// classes, steps kept, to a checked-in digest: over the direct and the HTTP
// transport, with one worker and with four, every run must hash to the
// class's golden. Regenerate with: go test ./internal/testbed -run
// TestSteadyVisitStreamGolden -update
func TestSteadyVisitStreamGolden(t *testing.T) {
	golden := filepath.Join("testdata", "steady_stream.golden")
	var sb strings.Builder
	for _, class := range []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB} {
		var first string
		for _, tr := range []Transport{Direct, HTTP} {
			for _, workers := range []int{1, 4} {
				d := streamDigest(t, Options{Transport: tr}, class, workers)
				if first == "" {
					first = d
				} else if d != first {
					t.Errorf("%v over %v with %d workers: digest %s, first run %s", class, tr, workers, d, first)
				}
			}
		}
		fmt.Fprintf(&sb, "%s %s\n", class, first)
	}
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if sb.String() != string(want) {
		t.Errorf("visit stream diverges from %s:\ngot:\n%swant:\n%s", golden, sb.String(), want)
	}
}
