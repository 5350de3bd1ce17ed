package tracemine

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/modelspec"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/travelagency"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenStream exports visitsPerClass visits of each class from a
// single-worker testbed run (steps kept, class B's trace IDs after class
// A's) as JSONL, in recording order. One worker makes the order, and so the
// bytes, a function of the seed alone.
func goldenStream(t *testing.T, visitsPerClass int64, seed int64) []byte {
	t.Helper()
	cluster, err := testbed.New(travelagency.DefaultParams(), testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	tracer := obs.NewTracer(int(2 * visitsPerClass))
	col := telemetry.NewCollector(0)
	col.SetOnRecord(obs.NewBridge(nil, tracer, nil).OnVisit)
	for ci, class := range []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB} {
		gen := testbed.LoadGen{
			Cluster: cluster, Class: class,
			Visits: visitsPerClass, Workers: 1, Seed: seed,
			Offset: int64(ci) * visitsPerClass, KeepSteps: true,
		}
		if err := gen.Run(col); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scramble permutes a seeded 20% of the stream's lines among their own
// positions and writes every tenth line twice, so traces interleave, resume
// after others, arrive with descending IDs and repeat spans.
func scramble(stream []byte, seed int64) []byte {
	lines := bytes.SplitAfter(stream, []byte("\n"))
	if len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	rng := rand.New(rand.NewSource(seed))
	picked := rng.Perm(len(lines))[:len(lines)/5]
	moved := make([][]byte, len(picked))
	for k, p := range picked {
		moved[k] = lines[p]
	}
	rng.Shuffle(len(moved), func(i, j int) { moved[i], moved[j] = moved[j], moved[i] })
	for k, p := range picked {
		lines[p] = moved[k]
	}
	var out []byte
	for i, line := range lines {
		out = append(out, line...)
		if i%10 == 0 {
			out = append(out, line...)
		}
	}
	return out
}

// TestMineDiscoveryGolden pins what MineJSONL discovers from a seeded
// testbed stream, and the drift report rendered against both classes'
// specifications, to checked-in SHA-256 digests: once for the stream as
// written and once scrambled (see scramble). Regenerate with:
// go test ./internal/tracemine -run TestMineDiscoveryGolden -update
func TestMineDiscoveryGolden(t *testing.T) {
	p := travelagency.DefaultParams()
	specs := make(map[string]*modelspec.Spec, 2)
	for _, class := range []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB} {
		spec, err := travelagency.SpecForClass(p, class)
		if err != nil {
			t.Fatal(err)
		}
		specs[class.String()] = spec
	}
	clean := goldenStream(t, 1000, 11)
	var got bytes.Buffer
	for _, in := range []struct {
		name   string
		stream []byte
	}{
		{"clean", clean},
		{"scrambled", scramble(clean, 5)},
	} {
		d, err := MineJSONL(bytes.NewReader(in.stream), Options{})
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Diff(d, specs, DiffOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var rendered bytes.Buffer
		if err := WriteReport(&rendered, rep); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s read %+v fold %+v verdict %s\n", in.name, d.Read, d.Fold, rep.Verdict)
		fmt.Fprintf(&got, "%s discovery sha256 %x\n", in.name, sha256.Sum256(js))
		fmt.Fprintf(&got, "%s report sha256 %x\n", in.name, sha256.Sum256(rendered.Bytes()))
	}

	golden := filepath.Join("testdata", "discovery.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got.String() != string(want) {
		t.Errorf("discovery diverges from %s:\ngot:\n%swant:\n%s", golden, got.String(), want)
	}
}
