package dtmc

import (
	"math"
	"testing"
)

// operationalProfileChain mirrors the paper's Figure 2 user operational
// profile: Start → functions with branching, absorbing Exit.
func operationalProfileChain(t testing.TB) *Chain {
	c := New()
	add := func(from, to string, p float64) {
		if err := c.AddTransition(from, to, p); err != nil {
			t.Fatalf("AddTransition(%s, %s, %v): %v", from, to, p, err)
		}
	}
	add("start", "home", 1)
	add("home", "browse", 0.6)
	add("home", "search", 0.3)
	add("home", "exit", 0.1)
	add("browse", "search", 0.5)
	add("browse", "book", 0.3)
	add("browse", "exit", 0.2)
	add("search", "book", 0.4)
	add("search", "browse", 0.35)
	add("search", "exit", 0.25)
	add("book", "pay", 0.9)
	add("book", "exit", 0.1)
	add("pay", "done", 0.95)
	add("pay", "fail", 0.05)
	return c
}

// assertBitIdentical compares a compiled analysis to the generic one on every
// query with tolerance zero.
func assertBitIdentical(t *testing.T, c *Chain, an *CompiledAnalysis) {
	t.Helper()
	ref, err := c.AnalyzeAbsorbing()
	if err != nil {
		t.Fatalf("AnalyzeAbsorbing: %v", err)
	}
	for _, start := range ref.TransientStates() {
		wantV, err := ref.ExpectedVisits(start)
		if err != nil {
			t.Fatalf("generic ExpectedVisits(%s): %v", start, err)
		}
		gotV, err := an.ExpectedVisits(start)
		if err != nil {
			t.Fatalf("compiled ExpectedVisits(%s): %v", start, err)
		}
		if len(gotV) != len(wantV) {
			t.Fatalf("ExpectedVisits(%s): %d entries, want %d", start, len(gotV), len(wantV))
		}
		for name, w := range wantV {
			if g := gotV[name]; g != w {
				t.Errorf("ExpectedVisits(%s)[%s] = %v, want %v (diff %g)", start, name, g, w, g-w)
			}
		}
		wantB, err := ref.AbsorptionProbabilities(start)
		if err != nil {
			t.Fatalf("generic AbsorptionProbabilities(%s): %v", start, err)
		}
		gotB, err := an.AbsorptionProbabilities(start)
		if err != nil {
			t.Fatalf("compiled AbsorptionProbabilities(%s): %v", start, err)
		}
		for name, w := range wantB {
			if g := gotB[name]; g != w {
				t.Errorf("AbsorptionProbabilities(%s)[%s] = %v, want %v (diff %g)", start, name, g, w, g-w)
			}
		}
	}
	// Absorbing starts: identity rows on both paths.
	for _, start := range ref.AbsorbingStates() {
		wantB, err := ref.AbsorptionProbabilities(start)
		if err != nil {
			t.Fatalf("generic AbsorptionProbabilities(%s): %v", start, err)
		}
		gotB, err := an.AbsorptionProbabilities(start)
		if err != nil {
			t.Fatalf("compiled AbsorptionProbabilities(%s): %v", start, err)
		}
		for name, w := range wantB {
			if g := gotB[name]; g != w {
				t.Errorf("AbsorptionProbabilities(%s)[%s] = %v, want %v", start, name, g, w)
			}
		}
	}
}

func TestCompiledBitIdentical(t *testing.T) {
	c := operationalProfileChain(t)
	cc, err := c.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	an, err := cc.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	assertBitIdentical(t, c, an)
}

func TestCompiledStateOrderMatchesGeneric(t *testing.T) {
	c := operationalProfileChain(t)
	ref, err := c.AnalyzeAbsorbing()
	if err != nil {
		t.Fatalf("AnalyzeAbsorbing: %v", err)
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	an, err := cc.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	gotT, wantT := an.TransientStates(), ref.TransientStates()
	if len(gotT) != len(wantT) {
		t.Fatalf("TransientStates: %v, want %v", gotT, wantT)
	}
	for i := range wantT {
		if gotT[i] != wantT[i] {
			t.Errorf("TransientStates[%d] = %s, want %s", i, gotT[i], wantT[i])
		}
	}
	gotA, wantA := an.AbsorbingStates(), ref.AbsorbingStates()
	for i := range wantA {
		if gotA[i] != wantA[i] {
			t.Errorf("AbsorbingStates[%d] = %s, want %s", i, gotA[i], wantA[i])
		}
	}
}

func TestCompiledExpectedSteps(t *testing.T) {
	c := operationalProfileChain(t)
	cc, err := c.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	an, err := cc.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// The compiled row sum accumulates in transient-position order; compare
	// against the same accumulation over the compiled row.
	visits, err := an.ExpectedVisitsInto(nil, "start")
	if err != nil {
		t.Fatalf("ExpectedVisitsInto: %v", err)
	}
	var want float64
	for _, v := range visits {
		want += v
	}
	got, err := an.ExpectedStepsToAbsorption("start")
	if err != nil {
		t.Fatalf("ExpectedStepsToAbsorption: %v", err)
	}
	if got != want {
		t.Errorf("ExpectedStepsToAbsorption = %v, want %v", got, want)
	}
	// And it must agree with the generic value up to summation order.
	ref, err := c.AnalyzeAbsorbing()
	if err != nil {
		t.Fatalf("AnalyzeAbsorbing: %v", err)
	}
	refSteps, err := ref.ExpectedStepsToAbsorption("start")
	if err != nil {
		t.Fatalf("generic ExpectedStepsToAbsorption: %v", err)
	}
	if math.Abs(got-refSteps) > 1e-12 {
		t.Errorf("ExpectedStepsToAbsorption = %v, generic %v", got, refSteps)
	}
}

func TestSetProbabilityResolve(t *testing.T) {
	c := operationalProfileChain(t)
	cc, err := c.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	an, err := cc.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// Perturb one row's probabilities and re-solve in place; the result must
	// be bit-identical to a fresh generic analysis of the perturbed chain.
	set := func(from, to string, p float64) {
		t.Helper()
		if err := cc.SetProbability(from, to, p); err != nil {
			t.Fatalf("SetProbability(%s, %s, %v): %v", from, to, p, err)
		}
	}
	set("home", "browse", 0.5)
	set("home", "search", 0.4)
	an, err = cc.AnalyzeInto(an)
	if err != nil {
		t.Fatalf("AnalyzeInto: %v", err)
	}
	ref := New()
	add := func(from, to string, p float64) {
		if err := ref.AddTransition(from, to, p); err != nil {
			t.Fatalf("AddTransition: %v", err)
		}
	}
	add("start", "home", 1)
	add("home", "browse", 0.5)
	add("home", "search", 0.4)
	add("home", "exit", 0.1)
	add("browse", "search", 0.5)
	add("browse", "book", 0.3)
	add("browse", "exit", 0.2)
	add("search", "book", 0.4)
	add("search", "browse", 0.35)
	add("search", "exit", 0.25)
	add("book", "pay", 0.9)
	add("book", "exit", 0.1)
	add("pay", "done", 0.95)
	add("pay", "fail", 0.05)
	assertBitIdentical(t, ref, an)
}

func TestSetProbabilityValidation(t *testing.T) {
	c := operationalProfileChain(t)
	cc, err := c.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := cc.SetProbability("home", "browse", 0); err == nil {
		t.Error("probability 0 accepted")
	}
	if err := cc.SetProbability("home", "browse", math.NaN()); err == nil {
		t.Error("NaN probability accepted")
	}
	if err := cc.SetProbability("ghost", "browse", 0.5); err == nil {
		t.Error("unknown source accepted")
	}
	if err := cc.SetProbability("home", "pay", 0.5); err == nil {
		t.Error("non-existent edge accepted (structure should be frozen)")
	}
	// A refresh that breaks the row sum must be caught at Analyze.
	if err := cc.SetProbability("home", "browse", 0.9); err != nil {
		t.Fatalf("SetProbability: %v", err)
	}
	if _, err := cc.Analyze(); err == nil {
		t.Error("non-stochastic refreshed row accepted by Analyze")
	}
}

func TestCompileRejectsDegenerateChains(t *testing.T) {
	if _, err := New().Compile(); err == nil {
		t.Error("empty chain compiled")
	}
	c := New()
	mustAdd(t, c, "a", "b", 0.5)
	mustAdd(t, c, "b", "a", 0.5)
	mustAdd(t, c, "a", "a", 0.5)
	mustAdd(t, c, "b", "b", 0.5)
	if _, err := c.Compile(); err == nil {
		t.Error("chain with no absorbing states compiled")
	}
}

func TestCompiledAllTransientCannotReachAbsorption(t *testing.T) {
	// a↔b is a closed transient class; c is absorbing but unreachable from it.
	c := New()
	mustAdd(t, c, "a", "b", 1)
	mustAdd(t, c, "b", "a", 1)
	mustAdd(t, c, "x", "c", 1)
	cc, err := c.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if _, err := cc.Analyze(); err == nil {
		t.Error("closed transient class accepted")
	}
	if _, err := c.AnalyzeAbsorbing(); err == nil {
		t.Error("generic analysis accepted closed transient class")
	}
}

func TestAnalyzeIntoAllocationFree(t *testing.T) {
	c := operationalProfileChain(t)
	cc, err := c.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	an, err := cc.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	var visits, probs []float64
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		an, err = cc.AnalyzeInto(an)
		if err != nil {
			t.Fatalf("AnalyzeInto: %v", err)
		}
		visits, err = an.ExpectedVisitsInto(visits, "start")
		if err != nil {
			t.Fatalf("ExpectedVisitsInto: %v", err)
		}
		probs, err = an.AbsorptionProbabilitiesInto(probs, "start")
		if err != nil {
			t.Fatalf("AbsorptionProbabilitiesInto: %v", err)
		}
	})
	// Race instrumentation allocates, so only the plain build checks the
	// count; both builds check the results.
	if allocs > 0 && !raceEnabled {
		t.Errorf("AnalyzeInto + Into queries allocated %v times per run, want 0", allocs)
	}
	wantVisits, err := an.ExpectedVisits("start")
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range an.TransientStates() {
		if visits[i] != wantVisits[s] {
			t.Errorf("visits[%s] = %v, want %v", s, visits[i], wantVisits[s])
		}
	}
	wantProbs, err := an.AbsorptionProbabilities("start")
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range an.AbsorbingStates() {
		if probs[i] != wantProbs[s] {
			t.Errorf("probs[%s] = %v, want %v", s, probs[i], wantProbs[s])
		}
	}
}

func TestCompiledAllAbsorbing(t *testing.T) {
	c := New()
	c.AddState("only")
	cc, err := c.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	an, err := cc.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	probs, err := an.AbsorptionProbabilities("only")
	if err != nil {
		t.Fatalf("AbsorptionProbabilities: %v", err)
	}
	if probs["only"] != 1 {
		t.Errorf("AbsorptionProbabilities(only) = %v", probs)
	}
}
