package gspn

import (
	"testing"
)

// figure10Net is the paper's Figure 10 web-farm repair net shape: markings
// up/down with infinite-server failure, imperfect coverage via immediates,
// and inhibited repair.
func figure10Net(t testing.TB, servers int, lambda, mu, c, beta float64) *Net {
	n := New()
	mustNoErr := func(err error) {
		if err != nil {
			t.Fatalf("building net: %v", err)
		}
	}
	mustNoErr(n.AddPlace("up", servers))
	mustNoErr(n.AddPlace("down", 0))
	mustNoErr(n.AddPlace("choice", 0))
	mustNoErr(n.AddPlace("reconf", 0))
	mustNoErr(n.AddTimedTransitionFunc("fail", func(m Marking) float64 {
		return float64(m["up"]) * lambda
	}))
	mustNoErr(n.AddInputArc("up", "fail", 1))
	mustNoErr(n.AddOutputArc("fail", "choice", 1))
	mustNoErr(n.AddImmediateTransition("covered", c))
	mustNoErr(n.AddInputArc("choice", "covered", 1))
	mustNoErr(n.AddOutputArc("covered", "down", 1))
	mustNoErr(n.AddImmediateTransition("uncovered", 1-c))
	mustNoErr(n.AddInputArc("choice", "uncovered", 1))
	mustNoErr(n.AddOutputArc("uncovered", "reconf", 1))
	mustNoErr(n.AddTimedTransition("reconfigure", beta))
	mustNoErr(n.AddInputArc("reconf", "reconfigure", 1))
	mustNoErr(n.AddOutputArc("reconfigure", "down", 1))
	mustNoErr(n.AddTimedTransition("repair", mu))
	mustNoErr(n.AddInputArc("down", "repair", 1))
	mustNoErr(n.AddOutputArc("repair", "up", 1))
	mustNoErr(n.AddInhibitorArc("reconf", "repair", 1))
	return n
}

// genericSteady runs the uncached ToCTMC reference and solves its chain.
func genericSteady(t *testing.T, n *Net) map[string]float64 {
	t.Helper()
	chain, _, err := n.ToCTMC(0)
	if err != nil {
		t.Fatalf("ToCTMC: %v", err)
	}
	cc, err := chain.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	steady, err := cc.SteadyState()
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	out := make(map[string]float64, chain.NumStates())
	for _, key := range chain.StateNames() {
		out[key] = steady.Probability(key)
	}
	return out
}

func TestFrozenBitIdenticalToGeneric(t *testing.T) {
	n := figure10Net(t, 4, 1e-2, 2, 0.98, 10)
	want := genericSteady(t, n)
	a, err := n.Analyze(0)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if a.NumMarkings() != len(want) {
		t.Fatalf("NumMarkings = %d, want %d", a.NumMarkings(), len(want))
	}
	for key, w := range want {
		if g := a.StateProbability(key); g != w {
			t.Errorf("state %s: frozen %v != generic %v (expected bit-identical)", key, g, w)
		}
	}
}

func TestFreezeCachedAcrossAnalyze(t *testing.T) {
	n := figure10Net(t, 3, 1e-3, 1, 0.95, 5)
	before := ReadKernelStats()
	if _, err := n.Analyze(0); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if _, err := n.Analyze(0); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	after := ReadKernelStats()
	if got := after.Freezes - before.Freezes; got != 1 {
		t.Errorf("explorations = %d, want 1 (second Analyze should hit the cache)", got)
	}
	if got := after.FreezeHits - before.FreezeHits; got != 1 {
		t.Errorf("freeze hits = %d, want 1", got)
	}
	if got := after.Solves - before.Solves; got != 2 {
		t.Errorf("solves = %d, want 2", got)
	}
}

func TestRateRefreshResolvesWithoutReexploring(t *testing.T) {
	n := figure10Net(t, 4, 1e-2, 2, 0.98, 10)
	if _, err := n.Analyze(0); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	before := ReadKernelStats()
	// Rate-only perturbation: new repair rate and coverage weights.
	if err := n.SetTimedRate("repair", 3); err != nil {
		t.Fatalf("SetTimedRate: %v", err)
	}
	if err := n.SetImmediateWeight("covered", 0.9); err != nil {
		t.Fatalf("SetImmediateWeight: %v", err)
	}
	if err := n.SetImmediateWeight("uncovered", 0.1); err != nil {
		t.Fatalf("SetImmediateWeight: %v", err)
	}
	a, err := n.Analyze(0)
	if err != nil {
		t.Fatalf("Analyze after refresh: %v", err)
	}
	after := ReadKernelStats()
	if got := after.Freezes - before.Freezes; got != 0 {
		t.Errorf("explorations after rate refresh = %d, want 0", got)
	}
	// The re-solve must match a from-scratch net with the same parameters,
	// bit for bit.
	fresh := figure10Net(t, 4, 1e-2, 2, 0.9, 10)
	if err := fresh.SetTimedRate("repair", 3); err != nil {
		t.Fatalf("SetTimedRate: %v", err)
	}
	// figure10Net derives weights 0.9/0.1 from c = 0.9; replace explicitly to
	// rule out 1-c rounding differences.
	if err := fresh.SetImmediateWeight("covered", 0.9); err != nil {
		t.Fatalf("SetImmediateWeight: %v", err)
	}
	if err := fresh.SetImmediateWeight("uncovered", 0.1); err != nil {
		t.Fatalf("SetImmediateWeight: %v", err)
	}
	want := genericSteady(t, fresh)
	for key, w := range want {
		if g := a.StateProbability(key); g != w {
			t.Errorf("state %s: refreshed frozen %v != fresh generic %v", key, g, w)
		}
	}
}

func TestStructuralMutationInvalidatesFreeze(t *testing.T) {
	n := figure10Net(t, 2, 1e-2, 1, 0.98, 10)
	if _, err := n.Analyze(0); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	before := ReadKernelStats()
	// A new arc is structure: the cached graph must be rebuilt.
	if err := n.AddPlace("spare", 1); err != nil {
		t.Fatalf("AddPlace: %v", err)
	}
	if _, err := n.Analyze(0); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	after := ReadKernelStats()
	if got := after.Freezes - before.Freezes; got != 1 {
		t.Errorf("explorations after structural mutation = %d, want 1", got)
	}
}

func TestSetMutatorValidation(t *testing.T) {
	n := figure10Net(t, 2, 1e-2, 1, 0.98, 10)
	if err := n.SetTimedRate("repair", 0); err == nil {
		t.Error("zero rate accepted")
	}
	if err := n.SetTimedRate("ghost", 1); err == nil {
		t.Error("unknown transition accepted")
	}
	if err := n.SetTimedRate("covered", 1); err == nil {
		t.Error("immediate transition accepted by SetTimedRate")
	}
	if err := n.SetImmediateWeight("repair", 1); err == nil {
		t.Error("timed transition accepted by SetImmediateWeight")
	}
	if err := n.SetImmediateWeight("covered", -1); err == nil {
		t.Error("negative weight accepted")
	}
	if err := n.SetTimedRateFunc("fail", nil); err == nil {
		t.Error("nil rate function accepted")
	}
}

func TestFrozenRespectsMaxMarkings(t *testing.T) {
	n := figure10Net(t, 6, 1e-2, 2, 0.98, 10)
	a, err := n.Analyze(0)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// A cached graph larger than a later, tighter limit must fail exactly
	// like the uncached path would.
	if _, err := n.Analyze(a.NumMarkings() - 1); err == nil {
		t.Error("tighter maxMarkings accepted with oversized cached graph")
	}
	// The cached graph still serves the original limit.
	if _, err := n.Analyze(a.NumMarkings()); err != nil {
		t.Errorf("Analyze at exact marking count: %v", err)
	}
}

func TestFrozenRateFuncReturningZeroSurfacesAtSolve(t *testing.T) {
	n := New()
	rate := 1.0
	if err := n.AddPlace("p", 1); err != nil {
		t.Fatal(err)
	}
	if err := n.AddPlace("q", 0); err != nil {
		t.Fatal(err)
	}
	if err := n.AddTimedTransitionFunc("flip", func(Marking) float64 { return rate }); err != nil {
		t.Fatal(err)
	}
	if err := n.AddInputArc("p", "flip", 1); err != nil {
		t.Fatal(err)
	}
	if err := n.AddOutputArc("flip", "q", 1); err != nil {
		t.Fatal(err)
	}
	if err := n.AddTimedTransition("back", 1); err != nil {
		t.Fatal(err)
	}
	if err := n.AddInputArc("q", "back", 1); err != nil {
		t.Fatal(err)
	}
	if err := n.AddOutputArc("back", "p", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Analyze(0); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	rate = 0 // the captured variable turns the rate invalid
	if _, err := n.Analyze(0); err == nil {
		t.Error("zero rate accepted by frozen re-solve")
	}
}
