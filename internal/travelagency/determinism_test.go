package travelagency

import (
	"fmt"
	"math"
	"testing"
)

// diagramPins are the Float64bits of every function scenario of the five TA
// diagrams, captured before the path-class analysis was shared between
// profiles and diagrams, for the Table 7 branch probabilities and for a
// second set.
var diagramPins = []struct {
	q23, q24, q45, q47 float64
	pins               map[string]uint64 // "function/services" → bits
}{{
	0.2, 0.8, 0.4, 0.6, map[string]uint64{
		"Book/AS+Car+DS+Flight+Hotel+LAN+Net+WS":   0x3ff0000000000000,
		"Browse/AS+DS+LAN+Net+WS":                  0x3fdeb851eb851eb8,
		"Browse/AS+LAN+Net+WS":                     0x3fd47ae147ae147c,
		"Browse/LAN+Net+WS":                        0x3fc999999999999a,
		"Home/LAN+Net+WS":                          0x3ff0000000000000,
		"Pay/AS+DS+LAN+Net+PS+WS":                  0x3ff0000000000000,
		"Search/AS+Car+DS+Flight+Hotel+LAN+Net+WS": 0x3ff0000000000000,
	},
}, {
	0.35, 0.65, 0.3, 0.7, map[string]uint64{
		"Book/AS+Car+DS+Flight+Hotel+LAN+Net+WS":   0x3ff0000000000000,
		"Browse/AS+DS+LAN+Net+WS":                  0x3fdd1eb851eb851e,
		"Browse/LAN+Net+WS":                        0x3fd6666666666666,
		"Browse/AS+LAN+Net+WS":                     0x3fc8f5c28f5c28f6,
		"Home/LAN+Net+WS":                          0x3ff0000000000000,
		"Pay/AS+DS+LAN+Net+PS+WS":                  0x3ff0000000000000,
		"Search/AS+Car+DS+Flight+Hotel+LAN+Net+WS": 0x3ff0000000000000,
	},
}}

// Every TA diagram scenario keeps its pinned bits, for both architectures
// and several web-server counts.
func TestDiagramScenarioPins(t *testing.T) {
	for _, set := range diagramPins {
		for _, arch := range []Architecture{Basic, Redundant} {
			for _, n := range []int{1, 2, 4, 10} {
				p := DefaultParams()
				p.Architecture, p.WebServers = arch, n
				p.Q23, p.Q24, p.Q45, p.Q47 = set.q23, set.q24, set.q45, set.q47
				diagrams, err := Diagrams(p)
				if err != nil {
					t.Fatal(err)
				}
				got := 0
				for fn, d := range diagrams {
					scs, err := d.Scenarios()
					if err != nil {
						t.Fatalf("%s: %v", fn, err)
					}
					for _, sc := range scs {
						got++
						key := fn + "/" + sc.Key()
						if bits := math.Float64bits(sc.Probability); bits != set.pins[key] {
							t.Errorf("%v N=%d q23=%v %s: bits %#016x, want %#016x", arch, n, set.q23, key, bits, set.pins[key])
						}
					}
				}
				if got != len(set.pins) {
					t.Errorf("%v N=%d q23=%v: %d scenarios, want %d", arch, n, set.q23, got, len(set.pins))
				}
			}
		}
	}
}

// FitProfile returns the same residual and the same fitted transition
// probabilities, to the bit, on every call.
func TestFitProfileDeterministic(t *testing.T) {
	fingerprint := func(class UserClass) string {
		res, err := FitProfile(class)
		if err != nil {
			t.Fatal(err)
		}
		s := fmt.Sprintf("residual=%#x", math.Float64bits(res.Residual))
		for _, e := range Figure2Edges() {
			s += fmt.Sprintf(" %s→%s=%#x", e.From, e.To, math.Float64bits(res.Profile.TransitionProbability(e.From, e.To)))
		}
		return s
	}
	for _, class := range []UserClass{ClassA, ClassB} {
		want := fingerprint(class)
		for i := 1; i < 20; i++ {
			if got := fingerprint(class); got != want {
				t.Fatalf("%v call %d: %s, want %s", class, i, got, want)
			}
		}
	}
}
