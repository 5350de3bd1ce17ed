package dtmc

import (
	"math"
	"testing"
	"testing/quick"
)

func mustAdd(t *testing.T, c *Chain, from, to string, p float64) {
	t.Helper()
	if err := c.AddTransition(from, to, p); err != nil {
		t.Fatalf("AddTransition(%s, %s, %v): %v", from, to, p, err)
	}
}

func TestAddTransitionValidation(t *testing.T) {
	c := New()
	for _, p := range []float64{0, -0.5, 1.5, math.NaN()} {
		if err := c.AddTransition("a", "b", p); err == nil {
			t.Errorf("probability %v accepted", p)
		}
	}
	// Accumulation beyond 1 rejected.
	mustAdd(t, c, "x", "y", 0.7)
	if err := c.AddTransition("x", "y", 0.7); err == nil {
		t.Error("accumulated probability > 1 accepted")
	}
}

func TestValidate(t *testing.T) {
	c := New()
	mustAdd(t, c, "a", "b", 0.5)
	if err := c.Validate(); err == nil {
		t.Error("sub-stochastic row accepted")
	}
	mustAdd(t, c, "a", "c", 0.5)
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestIsAbsorbing(t *testing.T) {
	c := New()
	mustAdd(t, c, "a", "b", 1)
	got, err := c.IsAbsorbing("b")
	if err != nil || !got {
		t.Errorf("IsAbsorbing(b) = %v, %v; want true", got, err)
	}
	got, err = c.IsAbsorbing("a")
	if err != nil || got {
		t.Errorf("IsAbsorbing(a) = %v, %v; want false", got, err)
	}
	if _, err := c.IsAbsorbing("ghost"); err == nil {
		t.Error("unknown state accepted")
	}
}

// gambler builds the classic gambler's-ruin chain on 0..n with win prob p.
func gambler(t *testing.T, n int, p float64) *Chain {
	t.Helper()
	c := New()
	c.AddState("0")
	for i := 1; i < n; i++ {
		mustAdd(t, c, name(i), name(i+1), p)
		mustAdd(t, c, name(i), name(i-1), 1-p)
	}
	c.AddState(name(n))
	return c
}

func name(i int) string {
	return string(rune('0' + i))
}

func TestAbsorbingGamblersRuin(t *testing.T) {
	// Fair game on 0..4: from state i, P(absorb at 4) = i/4, and the
	// expected duration from i is i·(4−i).
	c := gambler(t, 4, 0.5)
	an, err := c.AnalyzeAbsorbing()
	if err != nil {
		t.Fatalf("AnalyzeAbsorbing: %v", err)
	}
	for i := 1; i <= 3; i++ {
		probs, err := an.AbsorptionProbabilities(name(i))
		if err != nil {
			t.Fatalf("AbsorptionProbabilities(%d): %v", i, err)
		}
		want := float64(i) / 4
		if math.Abs(probs["4"]-want) > 1e-12 {
			t.Errorf("P(ruin→4 | start %d) = %v, want %v", i, probs["4"], want)
		}
		if math.Abs(probs["0"]-(1-want)) > 1e-12 {
			t.Errorf("P(ruin→0 | start %d) = %v, want %v", i, probs["0"], 1-want)
		}
		steps, err := an.ExpectedStepsToAbsorption(name(i))
		if err != nil {
			t.Fatalf("ExpectedStepsToAbsorption: %v", err)
		}
		if wantSteps := float64(i * (4 - i)); math.Abs(steps-wantSteps) > 1e-10 {
			t.Errorf("E[steps | start %d] = %v, want %v", i, steps, wantSteps)
		}
	}
}

func TestAbsorbingExpectedVisits(t *testing.T) {
	// a →(0.5) a (self loop), →(0.5) done. Expected visits to a from a = 2.
	c := New()
	mustAdd(t, c, "a", "a", 0.5)
	mustAdd(t, c, "a", "done", 0.5)
	an, err := c.AnalyzeAbsorbing()
	if err != nil {
		t.Fatalf("AnalyzeAbsorbing: %v", err)
	}
	v, err := an.ExpectedVisits("a")
	if err != nil {
		t.Fatalf("ExpectedVisits: %v", err)
	}
	if math.Abs(v["a"]-2) > 1e-12 {
		t.Errorf("E[visits to a] = %v, want 2", v["a"])
	}
}

func TestAbsorbingStartAtAbsorbing(t *testing.T) {
	c := New()
	mustAdd(t, c, "a", "end", 1)
	an, err := c.AnalyzeAbsorbing()
	if err != nil {
		t.Fatalf("AnalyzeAbsorbing: %v", err)
	}
	probs, err := an.AbsorptionProbabilities("end")
	if err != nil {
		t.Fatalf("AbsorptionProbabilities: %v", err)
	}
	if probs["end"] != 1 {
		t.Errorf("P = %v, want end:1", probs)
	}
	if _, err := an.ExpectedVisits("end"); err == nil {
		t.Error("ExpectedVisits of absorbing state accepted")
	}
}

func TestAbsorbingRequiresAbsorbingState(t *testing.T) {
	c := New()
	mustAdd(t, c, "a", "b", 1)
	mustAdd(t, c, "b", "a", 1)
	if _, err := c.AnalyzeAbsorbing(); err == nil {
		t.Error("chain without absorbing states accepted")
	}
}

func TestAbsorbingUnreachableAbsorption(t *testing.T) {
	// a and b cycle forever; 'end' exists but is only reachable from c.
	c := New()
	mustAdd(t, c, "a", "b", 1)
	mustAdd(t, c, "b", "a", 1)
	mustAdd(t, c, "c", "end", 1)
	if _, err := c.AnalyzeAbsorbing(); err == nil {
		t.Error("chain with transient states unable to reach absorption accepted")
	}
}

func TestAbsorbingStateLists(t *testing.T) {
	c := New()
	mustAdd(t, c, "start", "mid", 1)
	mustAdd(t, c, "mid", "end", 1)
	an, err := c.AnalyzeAbsorbing()
	if err != nil {
		t.Fatalf("AnalyzeAbsorbing: %v", err)
	}
	if got := an.TransientStates(); len(got) != 2 {
		t.Errorf("TransientStates = %v", got)
	}
	if got := an.AbsorbingStates(); len(got) != 1 || got[0] != "end" {
		t.Errorf("AbsorbingStates = %v", got)
	}
}

// Property: absorption probabilities from any transient start sum to one in
// random branching chains that always leak probability to an absorbing end.
func TestAbsorptionProbabilitySumProperty(t *testing.T) {
	f := func(raw [4]float64) bool {
		c := New()
		// s → {m1, m2, endA}; m1 → {m2, endA}; m2 → {m1 (looping), endB}.
		u := func(x float64) float64 { return 0.1 + 0.8*math.Abs(math.Mod(x, 1)) }
		a, b, d, e := u(raw[0]), u(raw[1]), u(raw[2]), u(raw[3])
		if err := c.AddTransition("s", "m1", a/2); err != nil {
			return false
		}
		if err := c.AddTransition("s", "m2", (1-a/2)/2); err != nil {
			return false
		}
		if err := c.AddTransition("s", "endA", 1-a/2-(1-a/2)/2); err != nil {
			return false
		}
		if err := c.AddTransition("m1", "m2", b/2); err != nil {
			return false
		}
		if err := c.AddTransition("m1", "endA", 1-b/2); err != nil {
			return false
		}
		if err := c.AddTransition("m2", "m1", d/2); err != nil {
			return false
		}
		if err := c.AddTransition("m2", "endB", 1-d/2); err != nil {
			return false
		}
		_ = e
		an, err := c.AnalyzeAbsorbing()
		if err != nil {
			return false
		}
		for _, start := range []string{"s", "m1", "m2"} {
			probs, err := an.AbsorptionProbabilities(start)
			if err != nil {
				return false
			}
			var sum float64
			for _, p := range probs {
				sum += p
			}
			if math.Abs(sum-1) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestProbabilityLookup(t *testing.T) {
	c := New()
	mustAdd(t, c, "a", "b", 0.25)
	p, err := c.Probability("a", "b")
	if err != nil || p != 0.25 {
		t.Errorf("Probability = %v, %v", p, err)
	}
	if _, err := c.Probability("a", "nope"); err == nil {
		t.Error("unknown target accepted")
	}
}
