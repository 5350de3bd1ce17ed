package travelagency

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestSpecForClassGolden locks the canonical bytes of the default spec of
// each class: the document tracemine diffs against and availd serves.
// Regenerate after an intentional model change with:
//
//	go test ./internal/travelagency -run TestSpecForClassGolden -update
func TestSpecForClassGolden(t *testing.T) {
	for class, name := range map[UserClass]string{ClassA: "a", ClassB: "b"} {
		spec, err := SpecForClass(DefaultParams(), class)
		if err != nil {
			t.Fatal(err)
		}
		got, err := spec.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "spec_class_"+name+".golden")
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update to create): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v: canonical spec drifted from %s:\n got %s\nwant %s", class, path, got, want)
		}
	}
}

// TestBuildMatchesSpecForClass: the model Build assembles and the model the
// exported spec document builds must evaluate to the same bits at every
// level, over the Table 8 rows, both architectures and both classes.
func TestBuildMatchesSpecForClass(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, arch := range []Architecture{Basic, Redundant} {
		for _, n := range []int{1, 2, 3, 4, 5, 10} {
			p := DefaultParams()
			p.Architecture = arch
			if arch == Basic {
				p.WebServers = 1
			}
			p.FlightSystems, p.HotelSystems, p.CarSystems = n, n, n
			for _, class := range []UserClass{ClassA, ClassB} {
				m, err := Build(p, class)
				if err != nil {
					t.Fatal(err)
				}
				want, err := m.Evaluate()
				if err != nil {
					t.Fatal(err)
				}
				spec, err := SpecForClass(p, class)
				if err != nil {
					t.Fatal(err)
				}
				sm, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				got, err := sm.Evaluate()
				if err != nil {
					t.Fatal(err)
				}
				at := func(what string, g, w float64) {
					if !same(g, w) {
						t.Errorf("%v N=%d %v: %s = %v, want %v", arch, n, class, what, g, w)
					}
				}
				for _, lv := range []struct {
					level     string
					got, want map[string]float64
				}{{"service", got.Services, want.Services}, {"function", got.Functions, want.Functions}} {
					if len(lv.got) != len(lv.want) {
						t.Fatalf("%v N=%d %v: %d %ss, want %d", arch, n, class, len(lv.got), lv.level, len(lv.want))
					}
					for name, w := range lv.want {
						at(lv.level+" "+name, lv.got[name], w)
					}
				}
				if len(got.Scenarios) != len(want.Scenarios) {
					t.Fatalf("%v N=%d %v: %d scenarios, want %d", arch, n, class, len(got.Scenarios), len(want.Scenarios))
				}
				for i, w := range want.Scenarios {
					g := got.Scenarios[i]
					if g.Name != w.Name {
						t.Errorf("scenario %d: %q, want %q", i, g.Name, w.Name)
					}
					at("scenario "+w.Name, g.Availability, w.Availability)
					at("probability "+w.Name, g.Probability, w.Probability)
				}
				at("user", got.UserAvailability, want.UserAvailability)
			}
		}
	}
}
