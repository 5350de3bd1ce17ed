package ctmc

import (
	"fmt"
	"testing"
)

var benchSink float64

// benchChain builds an irreducible birth-death chain with n states.
func benchChain(n int) *Chain {
	c := New()
	for i := 0; i < n-1; i++ {
		from := fmt.Sprintf("s%d", i)
		to := fmt.Sprintf("s%d", i+1)
		_ = c.AddTransition(from, to, 1.0+float64(i%3))
		_ = c.AddTransition(to, from, 0.5+float64(i%2))
	}
	return c
}

func BenchmarkSteadyStateGTH100(b *testing.B) {
	c := benchChain(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := c.SteadyState()
		if err != nil {
			b.Fatal(err)
		}
		benchSink += d.Probability("s0")
	}
}

func BenchmarkSteadyStateLU100(b *testing.B) {
	c := benchChain(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := c.SteadyStateLU()
		if err != nil {
			b.Fatal(err)
		}
		benchSink += d.Probability("s0")
	}
}

func BenchmarkTransient50(b *testing.B) {
	c := benchChain(50)
	initial := Distribution{"s0": 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := c.Transient(initial, 3, 1e-10)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += d.Probability("s49")
	}
}

// BenchmarkCompiledSteadyStateGTH100 is the compiled-kernel counterpart of
// BenchmarkSteadyStateGTH100: same chain, flat CSR + pooled workspace.
func BenchmarkCompiledSteadyStateGTH100(b *testing.B) {
	cc, err := benchChain(100).Compile()
	if err != nil {
		b.Fatal(err)
	}
	var pi []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pi, err = cc.SteadyStateInto(pi)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += pi[0]
	}
}

// BenchmarkCompiledSteadyStateLU100 measures the reusable-buffer LU kernel.
func BenchmarkCompiledSteadyStateLU100(b *testing.B) {
	cc, err := benchChain(100).Compile()
	if err != nil {
		b.Fatal(err)
	}
	var ws luWorkspace
	var pi []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pi, err = cc.steadyStateLUInto(&ws, pi)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += pi[0]
	}
}

// BenchmarkCompiledTransient50 measures allocation-free uniformization with
// cached Poisson terms (same solve as BenchmarkTransient50).
func BenchmarkCompiledTransient50(b *testing.B) {
	cc, err := benchChain(50).Compile()
	if err != nil {
		b.Fatal(err)
	}
	p0 := make([]float64, cc.NumStates())
	p0[0] = 1
	var out []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err = cc.TransientInto(p0, 3, 1e-10, out)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += out[len(out)-1]
	}
}

// BenchmarkCompiledOccupancy measures the first-year occupancy of the
// N_W=4, c=0.98 web farm (λ=1e-3/h, µ=1/h, β=12/h) over 8760 h: about 1e5
// uniformization steps on nine states.
func BenchmarkCompiledOccupancy(b *testing.B) {
	cc, err := figure10Chain(b, 4, 1e-3, 1, 0.98, 12).Compile()
	if err != nil {
		b.Fatal(err)
	}
	initial := Distribution{"4": 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		occ, err := cc.Occupancy(initial, 8760, 0)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += occ["0"]
	}
}

// BenchmarkCompile measures the one-time compilation cost amortized by the
// kernels above.
func BenchmarkCompile(b *testing.B) {
	c := benchChain(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc, err := c.Compile()
		if err != nil {
			b.Fatal(err)
		}
		benchSink += float64(cc.NumStates())
	}
}
