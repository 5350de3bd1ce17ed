package ctmc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// figure10Chain builds the paper's Figure 10 imperfect-coverage repair chain
// (states "0".."N" operational, "y1".."yN" manual reconfiguration), mirroring
// repairmodel.ImperfectCoverage.ToCTMC without importing it (that package
// depends on this one).
func figure10Chain(t testing.TB, servers int, failure, repair, coverage, reconfig float64) *Chain {
	t.Helper()
	c := New()
	for i := servers; i >= 1; i-- {
		covered := float64(i) * coverage * failure
		if err := c.AddTransition(fmt.Sprintf("%d", i), fmt.Sprintf("%d", i-1), covered); err != nil {
			t.Fatal(err)
		}
		if coverage < 1 {
			uncovered := float64(i) * (1 - coverage) * failure
			y := fmt.Sprintf("y%d", i)
			if err := c.AddTransition(fmt.Sprintf("%d", i), y, uncovered); err != nil {
				t.Fatal(err)
			}
			if err := c.AddTransition(y, fmt.Sprintf("%d", i-1), reconfig); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.AddTransition(fmt.Sprintf("%d", i-1), fmt.Sprintf("%d", i), repair); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func maxDistDiff(t *testing.T, a, b Distribution) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("distribution sizes differ: %d vs %d", len(a), len(b))
	}
	var max float64
	for name, pa := range a {
		if d := math.Abs(pa - b[name]); d > max {
			max = d
		}
	}
	return max
}

// TestCompiledSteadyStateFigure10 cross-checks the compiled GTH kernel
// against the generic map-based solver on the paper's stiff Figure 10 chain
// (rate ratio µ/λ = 1e4).
func TestCompiledSteadyStateFigure10(t *testing.T) {
	chain := figure10Chain(t, 10, 1e-4, 1, 0.98, 12)
	cc, err := chain.Compile()
	if err != nil {
		t.Fatal(err)
	}
	generic, err := chain.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := cc.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDistDiff(t, generic, compiled); d > 1e-12 {
		t.Fatalf("|π_compiled − π_generic| = %v, want < 1e-12", d)
	}
	// The GTH elimination is performed on identical dense matrices in
	// identical order, so the compiled path is in fact bit-identical.
	for name, p := range generic {
		if compiled[name] != p {
			t.Errorf("state %q: compiled %v != generic %v (expected bit-identical)", name, compiled[name], p)
		}
	}
	// LU path agrees to solver tolerance.
	lu, err := cc.SteadyStateLU()
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDistDiff(t, generic, lu); d > 1e-12 {
		t.Fatalf("|π_LU − π_generic| = %v, want < 1e-12", d)
	}
}

// randomIrreducibleChain builds a chain whose states form a ring (ensuring
// irreducibility) plus random extra transitions, with rates spanning several
// orders of magnitude.
func randomIrreducibleChain(t testing.TB, rng *rand.Rand, n int) *Chain {
	t.Helper()
	c := New()
	name := func(i int) string { return fmt.Sprintf("r%d", i) }
	rate := func() float64 { return math.Exp(rng.Float64()*12 - 6) } // 2.5e-3 .. 4e2
	for i := 0; i < n; i++ {
		if err := c.AddTransition(name(i), name((i+1)%n), rate()); err != nil {
			t.Fatal(err)
		}
	}
	extra := rng.Intn(2 * n)
	for e := 0; e < extra; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if err := c.AddTransition(name(i), name(j), rate()); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestCompiledSteadyStateRandomized is the property test: on randomized
// irreducible chains the compiled and generic GTH stationary vectors are
// bit-identical, and the two LU variants agree to 1e-12.
func TestCompiledSteadyStateRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(24)
		chain := randomIrreducibleChain(t, rng, n)
		cc, err := chain.Compile()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		generic, err := chain.SteadyState()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		compiled, err := cc.SteadyState()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for name, p := range generic {
			if math.Float64bits(compiled[name]) != math.Float64bits(p) {
				t.Fatalf("trial %d (n=%d): state %q: compiled GTH %v != generic %v (expected bit-identical)", trial, n, name, compiled[name], p)
			}
		}
		lu, err := cc.SteadyStateLU()
		if err != nil {
			t.Fatalf("trial %d: LU: %v", trial, err)
		}
		genericLU, err := chain.SteadyStateLU()
		if err != nil {
			t.Fatalf("trial %d: generic LU: %v", trial, err)
		}
		if d := maxDistDiff(t, genericLU, lu); d > 1e-12 {
			t.Fatalf("trial %d (n=%d): LU diff %v", trial, n, d)
		}
	}
}

// TestCompiledTransient cross-checks uniformization on a birth-death chain
// over several horizons, including t=0 and long horizons where the Poisson
// series is widest.
func TestCompiledTransient(t *testing.T) {
	chain := New()
	for i := 0; i < 20; i++ {
		if err := chain.AddTransition(fmt.Sprintf("s%d", i), fmt.Sprintf("s%d", i+1), 1.5); err != nil {
			t.Fatal(err)
		}
		if err := chain.AddTransition(fmt.Sprintf("s%d", i+1), fmt.Sprintf("s%d", i), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	cc, err := chain.Compile()
	if err != nil {
		t.Fatal(err)
	}
	initial := Distribution{"s0": 1}
	for _, tt := range []float64{0, 0.1, 1, 5, 25} {
		generic, err := chain.Transient(initial, tt, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := cc.Transient(initial, tt, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxDistDiff(t, generic, compiled); d > 1e-12 {
			t.Fatalf("t=%v: transient diff %v", tt, d)
		}
	}
	// Repeated identical horizons exercise the cached Poisson terms.
	first, err := cc.Transient(initial, 5, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cc.Transient(initial, 5, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range first {
		if second[name] != p {
			t.Fatalf("state %q: cached-term solve drifted: %v vs %v", name, second[name], p)
		}
	}
}

// TestCompiledSnapshot verifies Compile freezes the chain: transitions added
// afterwards do not leak into the compiled form.
func TestCompiledSnapshot(t *testing.T) {
	chain := New()
	if err := chain.AddTransition("a", "b", 1); err != nil {
		t.Fatal(err)
	}
	if err := chain.AddTransition("b", "a", 2); err != nil {
		t.Fatal(err)
	}
	cc, err := chain.Compile()
	if err != nil {
		t.Fatal(err)
	}
	before, err := cc.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.AddTransition("a", "b", 100); err != nil {
		t.Fatal(err)
	}
	after, err := cc.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range before {
		if after[name] != p {
			t.Fatalf("compiled chain changed after source mutation: %q %v vs %v", name, after[name], p)
		}
	}
	if cc.NumStates() != 2 {
		t.Fatalf("NumStates = %d", cc.NumStates())
	}
}

func TestCompiledErrors(t *testing.T) {
	if _, err := New().Compile(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty compile: %v", err)
	}
	// Reducible: absorbing state.
	chain := New()
	if err := chain.AddTransition("up", "down", 1); err != nil {
		t.Fatal(err)
	}
	cc, err := chain.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.SteadyState(); !errors.Is(err, ErrNotIrreducible) {
		t.Fatalf("reducible steady state: %v", err)
	}
	if _, err := cc.SteadyStateLU(); !errors.Is(err, ErrNotIrreducible) {
		t.Fatalf("reducible LU steady state: %v", err)
	}
	// Transient on reducible chains is fine; bad inputs are not.
	if _, err := cc.Transient(Distribution{"up": 1}, -1, 1e-12); err == nil {
		t.Fatal("negative time accepted")
	}
	if _, err := cc.Transient(Distribution{"nope": 1}, 1, 1e-12); !errors.Is(err, ErrUnknownState) {
		t.Fatalf("unknown initial state: %v", err)
	}
	if _, err := cc.Transient(Distribution{"up": 0.5}, 1, 1e-12); err == nil {
		t.Fatal("non-normalized initial distribution accepted")
	}
	if _, err := cc.TransientInto([]float64{1}, 1, 1e-12, nil); err == nil {
		t.Fatal("short initial vector accepted")
	}
	if _, err := cc.StateIndex("nope"); !errors.Is(err, ErrUnknownState) {
		t.Fatalf("StateIndex: %v", err)
	}
	if i, err := cc.StateIndex("up"); err != nil || i != 0 {
		t.Fatalf("StateIndex(up) = %d, %v", i, err)
	}
}

// TestCompiledSingleState covers the n=1 degenerate chain.
func TestCompiledSingleState(t *testing.T) {
	chain := New()
	chain.AddState("only")
	cc, err := chain.Compile()
	if err != nil {
		t.Fatal(err)
	}
	pi, err := cc.SteadyStateInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pi) != 1 || pi[0] != 1 {
		t.Fatalf("pi = %v", pi)
	}
	d, err := cc.Transient(Distribution{"only": 1}, 3, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if d["only"] != 1 {
		t.Fatalf("transient = %v", d)
	}
}

// TestCompiledConcurrentSolves hammers one compiled chain from many
// goroutines; run with -race to validate the workspace pool.
func TestCompiledConcurrentSolves(t *testing.T) {
	chain := figure10Chain(t, 8, 1e-3, 1, 0.95, 6)
	cc, err := chain.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := cc.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	initial := Distribution{"8": 1}
	wantTr, err := cc.Transient(initial, 100, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 30; k++ {
				got, err := cc.SteadyState()
				if err != nil {
					t.Error(err)
					return
				}
				for name, p := range want {
					if got[name] != p {
						t.Errorf("concurrent steady state drifted at %q", name)
						return
					}
				}
				tr, err := cc.Transient(initial, 100, 1e-12)
				if err != nil {
					t.Error(err)
					return
				}
				for name, p := range wantTr {
					if tr[name] != p {
						t.Errorf("concurrent transient drifted at %q", name)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCompiledBufferReuse verifies the Into variants reuse caller buffers.
func TestCompiledBufferReuse(t *testing.T) {
	chain := figure10Chain(t, 4, 1e-4, 1, 0.98, 12)
	cc, err := chain.Compile()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 0, cc.NumStates())
	pi, err := cc.SteadyStateInto(buf)
	if err != nil {
		t.Fatal(err)
	}
	if &pi[0] != &buf[:1][0] {
		t.Error("SteadyStateInto did not reuse the provided buffer")
	}
	pi2, err := cc.SteadyStateInto(pi)
	if err != nil {
		t.Fatal(err)
	}
	if &pi2[0] != &pi[0] {
		t.Error("second solve did not reuse the buffer")
	}
}

// TestKernelStats checks that the package-level solver counters advance when
// compiled kernels run. Counters are cumulative across the process, so the
// test asserts on deltas.
func TestKernelStats(t *testing.T) {
	chain := figure10Chain(t, 4, 1e-4, 1, 0.98, 12)
	cc, err := chain.Compile()
	if err != nil {
		t.Fatal(err)
	}
	before := ReadKernelStats()
	if _, err := cc.SteadyState(); err != nil {
		t.Fatal(err)
	}
	init := Distribution{"4": 1}
	for i := 0; i < 2; i++ {
		if _, err := cc.Transient(init, 10, 1e-9); err != nil {
			t.Fatal(err)
		}
	}
	after := ReadKernelStats()
	if d := after.SteadySolves - before.SteadySolves; d < 1 {
		t.Errorf("steady solves advanced by %d, want >= 1", d)
	}
	if d := after.TransientSolves - before.TransientSolves; d < 2 {
		t.Errorf("transient solves advanced by %d, want >= 2", d)
	}
	if d := after.UniformizationSteps - before.UniformizationSteps; d < 1 {
		t.Errorf("uniformization steps advanced by %d, want >= 1", d)
	}
	if d := after.PoissonCacheMisses - before.PoissonCacheMisses; d < 1 {
		t.Errorf("poisson misses advanced by %d, want >= 1", d)
	}

	// Poisson-term reuse belongs to one workspace, so it is checked on one:
	// whether Transient gets the same pooled workspace back depends on
	// sync.Pool, which the race detector makes drop Puts at random.
	var ws compiledWorkspace
	before = ReadKernelStats()
	ws.poissonTerms(12.5, 1e-9)
	ws.poissonTerms(12.5, 1e-9)
	after = ReadKernelStats()
	if d := after.PoissonCacheMisses - before.PoissonCacheMisses; d != 1 {
		t.Errorf("poisson misses advanced by %d, want 1", d)
	}
	if d := after.PoissonCacheHits - before.PoissonCacheHits; d != 1 {
		t.Errorf("poisson hits advanced by %d, want 1", d)
	}
}
