package testbed

import (
	"math/rand"
	"testing"

	"repro/internal/travelagency"
)

var benchSink float64

// BenchmarkSteadySnapshot measures one frozen fault-plane draw — the
// fixed per-visit cost of the steady-state plane.
func BenchmarkSteadySnapshot(b *testing.B) {
	plane, err := NewSteadyStatePlane(travelagency.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state, err := plane.Snapshot(rng)
		if err != nil {
			b.Fatal(err)
		}
		if state.Up(0, 0) { // resource 0 is the Internet link
			benchSink++
		}
	}
}

// BenchmarkRunVisitDirect measures one complete visit over the in-process
// transport (scenario 12 exercises all five functions).
func BenchmarkRunVisitDirect(b *testing.B) {
	benchmarkRunVisit(b, Direct)
}

// BenchmarkRunVisitHTTP measures the same visit over loopback HTTP — the
// transport tax of real listeners and headers.
func BenchmarkRunVisitHTTP(b *testing.B) {
	benchmarkRunVisit(b, HTTP)
}

func benchmarkRunVisit(b *testing.B, tr Transport) {
	b.Helper()
	c, err := New(travelagency.DefaultParams(), Options{Transport: tr})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	scenarios, err := travelagency.Scenarios(travelagency.ClassA)
	if err != nil {
		b.Fatal(err)
	}
	full := scenarios[len(scenarios)-1] // scenario 12: all five functions
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trc, err := c.RunVisit(uint64(i), full, rng, false)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += trc.Duration
	}
}
