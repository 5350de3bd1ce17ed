package ctmc

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// twoState builds the canonical repairable component: up --λ--> down,
// down --µ--> up. Steady-state availability is µ/(λ+µ).
func twoState(t *testing.T, lambda, mu float64) *Chain {
	t.Helper()
	c := New()
	if err := c.AddTransition("up", "down", lambda); err != nil {
		t.Fatalf("AddTransition: %v", err)
	}
	if err := c.AddTransition("down", "up", mu); err != nil {
		t.Fatalf("AddTransition: %v", err)
	}
	return c
}

func mustCompile(t testing.TB, c *Chain) *Compiled {
	t.Helper()
	cc, err := c.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return cc
}

func TestAddStateIdempotent(t *testing.T) {
	c := New()
	a := c.AddState("s")
	b := c.AddState("s")
	if a != b {
		t.Fatalf("AddState returned %d then %d for same name", a, b)
	}
	if c.NumStates() != 1 {
		t.Fatalf("NumStates = %d, want 1", c.NumStates())
	}
}

func TestAddTransitionValidation(t *testing.T) {
	c := New()
	if err := c.AddTransition("a", "b", 0); err == nil {
		t.Error("rate 0 accepted")
	}
	if err := c.AddTransition("a", "b", -1); err == nil {
		t.Error("negative rate accepted")
	}
	if err := c.AddTransition("a", "b", math.NaN()); err == nil {
		t.Error("NaN rate accepted")
	}
	if err := c.AddTransition("a", "b", math.Inf(1)); err == nil {
		t.Error("Inf rate accepted")
	}
	if err := c.AddTransition("a", "a", 1); err == nil {
		t.Error("self loop accepted")
	}
}

func TestAddTransitionAccumulates(t *testing.T) {
	c := New()
	_ = c.AddTransition("a", "b", 1)
	_ = c.AddTransition("a", "b", 2)
	r, err := c.Rate("a", "b")
	if err != nil {
		t.Fatalf("Rate: %v", err)
	}
	if r != 3 {
		t.Fatalf("Rate = %v, want 3", r)
	}
}

func TestGenerator(t *testing.T) {
	c := twoState(t, 2, 5)
	q, err := c.Generator()
	if err != nil {
		t.Fatalf("Generator: %v", err)
	}
	if q.At(0, 0) != -2 || q.At(0, 1) != 2 || q.At(1, 0) != 5 || q.At(1, 1) != -5 {
		t.Fatalf("generator = \n%v", q)
	}
	// Rows of a generator sum to zero.
	for i := 0; i < q.Rows(); i++ {
		var s float64
		for j := 0; j < q.Cols(); j++ {
			s += q.At(i, j)
		}
		if math.Abs(s) > 1e-15 {
			t.Errorf("row %d sums to %v", i, s)
		}
	}
}

func TestSteadyStateTwoState(t *testing.T) {
	const lambda, mu = 1e-4, 1.0
	c := twoState(t, lambda, mu)
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	want := mu / (lambda + mu)
	if got := pi.Probability("up"); math.Abs(got-want) > 1e-14 {
		t.Errorf("π(up) = %.16f, want %.16f", got, want)
	}
}

func TestSteadyStateMatchesLU(t *testing.T) {
	// An asymmetric 4-state chain.
	c := New()
	_ = c.AddTransition("a", "b", 1.5)
	_ = c.AddTransition("b", "c", 0.3)
	_ = c.AddTransition("c", "d", 2.0)
	_ = c.AddTransition("d", "a", 0.7)
	_ = c.AddTransition("b", "a", 0.9)
	_ = c.AddTransition("c", "a", 0.1)
	gth, err := c.SteadyState()
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	lu, err := c.SteadyStateLU()
	if err != nil {
		t.Fatalf("SteadyStateLU: %v", err)
	}
	for _, s := range c.StateNames() {
		if d := math.Abs(gth.Probability(s) - lu.Probability(s)); d > 1e-12 {
			t.Errorf("GTH vs LU for %s: %v vs %v", s, gth.Probability(s), lu.Probability(s))
		}
	}
}

func TestSteadyStateStiffChain(t *testing.T) {
	// Rates spanning eight orders of magnitude: the regime of the paper's
	// repair models (failure 1e-4/h, repair 1/h, reconfiguration 12/h).
	c := New()
	_ = c.AddTransition("ok", "degraded", 1e-4)
	_ = c.AddTransition("degraded", "ok", 1.0)
	_ = c.AddTransition("degraded", "down", 1e-4)
	_ = c.AddTransition("down", "ok", 12.0)
	gth, err := c.SteadyState()
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	lu, err := c.SteadyStateLU()
	if err != nil {
		t.Fatalf("SteadyStateLU: %v", err)
	}
	for _, s := range c.StateNames() {
		g, l := gth.Probability(s), lu.Probability(s)
		if rel := math.Abs(g-l) / math.Max(g, 1e-300); rel > 1e-8 {
			t.Errorf("state %s: GTH %v vs LU %v", s, g, l)
		}
	}
	// π(ok) ≈ 1 - 1e-4 to first order.
	if p := gth.Probability("ok"); p < 0.9998 || p > 1 {
		t.Errorf("π(ok) = %v", p)
	}
}

func TestSteadyStateDetectsReducible(t *testing.T) {
	c := New()
	_ = c.AddTransition("a", "b", 1) // b is absorbing: not irreducible
	if _, err := c.SteadyState(); err == nil {
		t.Error("SteadyState accepted a reducible chain")
	}
	if _, err := c.SteadyStateLU(); err == nil {
		t.Error("SteadyStateLU accepted a reducible chain")
	}
}

func TestSteadyStateEmptyAndSingle(t *testing.T) {
	if _, err := New().SteadyState(); err == nil {
		t.Error("empty chain accepted")
	}
	c := New()
	c.AddState("only")
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	if pi.Probability("only") != 1 {
		t.Errorf("π(only) = %v, want 1", pi.Probability("only"))
	}
}

// Property: for random irreducible birth–death chains, the GTH steady state
// satisfies global balance πQ = 0 and sums to one.
func TestSteadyStateBalanceProperty(t *testing.T) {
	f := func(rates [6]float64) bool {
		c := New()
		names := []string{"s0", "s1", "s2", "s3"}
		for i := 0; i < 3; i++ {
			up := math.Abs(math.Mod(rates[i], 10)) + 0.01
			down := math.Abs(math.Mod(rates[i+3], 10)) + 0.01
			if err := c.AddTransition(names[i], names[i+1], up); err != nil {
				return false
			}
			if err := c.AddTransition(names[i+1], names[i], down); err != nil {
				return false
			}
		}
		pi, err := c.SteadyState()
		if err != nil {
			return false
		}
		var sum float64
		for _, s := range names {
			sum += pi.Probability(s)
		}
		if math.Abs(sum-1) > 1e-12 {
			return false
		}
		// Global balance: for each state, inflow equals outflow.
		q, err := c.Generator()
		if err != nil {
			return false
		}
		vec := make([]float64, 4)
		for i, s := range names {
			vec[i] = pi.Probability(s)
		}
		for j := range vec {
			var b float64
			for i, v := range vec {
				b += v * q.At(i, j)
			}
			if math.Abs(b) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMeanTimeToAbsorption(t *testing.T) {
	// up --λ--> down: MTTF from up is 1/λ.
	c := New()
	_ = c.AddTransition("up", "down", 0.25)
	h, err := mustCompile(t, c).MeanTimeToAbsorption("down")
	if err != nil {
		t.Fatalf("MeanTimeToAbsorption: %v", err)
	}
	if got := h["up"]; math.Abs(got-4) > 1e-12 {
		t.Errorf("MTTF = %v, want 4", got)
	}
	if h["down"] != 0 {
		t.Errorf("target hitting time = %v, want 0", h["down"])
	}
}

func TestMeanTimeToAbsorptionSequential(t *testing.T) {
	// a --1--> b --2--> c: E[a→c] = 1 + 1/2 = 1.5.
	c := New()
	_ = c.AddTransition("a", "b", 1)
	_ = c.AddTransition("b", "c", 2)
	h, err := mustCompile(t, c).MeanTimeToAbsorption("c")
	if err != nil {
		t.Fatalf("MeanTimeToAbsorption: %v", err)
	}
	if math.Abs(h["a"]-1.5) > 1e-12 {
		t.Errorf("E[a→c] = %v, want 1.5", h["a"])
	}
	if math.Abs(h["b"]-0.5) > 1e-12 {
		t.Errorf("E[b→c] = %v, want 0.5", h["b"])
	}
}

func TestMeanTimeToAbsorptionUnreachable(t *testing.T) {
	c := New()
	_ = c.AddTransition("a", "b", 1)
	_ = c.AddTransition("b", "a", 1)
	c.AddState("island")
	cc := mustCompile(t, c)
	if _, err := cc.MeanTimeToAbsorption("island"); err == nil {
		t.Error("expected error when targets are unreachable")
	}
	if _, err := cc.MeanTimeToAbsorption("ghost"); err == nil {
		t.Error("unknown target accepted")
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	c := twoState(t, 0.5, 1.5)
	ss, err := c.SteadyState()
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	d, err := c.Transient(Distribution{"up": 1}, 50, 1e-12)
	if err != nil {
		t.Fatalf("Transient: %v", err)
	}
	for _, s := range c.StateNames() {
		if diff := math.Abs(d.Probability(s) - ss.Probability(s)); diff > 1e-9 {
			t.Errorf("transient(50) vs steady for %s: %v", s, diff)
		}
	}
}

func TestTransientAnalytic(t *testing.T) {
	// Two-state availability: A(t) = µ/(λ+µ) + λ/(λ+µ)·exp(-(λ+µ)t).
	const lambda, mu = 0.3, 0.7
	c := twoState(t, lambda, mu)
	for _, tt := range []float64{0, 0.1, 0.5, 1, 2, 5} {
		d, err := c.Transient(Distribution{"up": 1}, tt, 1e-13)
		if err != nil {
			t.Fatalf("Transient(%v): %v", tt, err)
		}
		want := mu/(lambda+mu) + lambda/(lambda+mu)*math.Exp(-(lambda+mu)*tt)
		if got := d.Probability("up"); math.Abs(got-want) > 1e-9 {
			t.Errorf("A(%v) = %.12f, want %.12f", tt, got, want)
		}
	}
}

func TestTransientValidation(t *testing.T) {
	c := twoState(t, 1, 1)
	if _, err := c.Transient(Distribution{"up": 0.5}, 1, 0); err == nil {
		t.Error("initial distribution not summing to 1 accepted")
	}
	if _, err := c.Transient(Distribution{"nosuch": 1}, 1, 0); err == nil {
		t.Error("unknown state accepted")
	}
	if _, err := c.Transient(Distribution{"up": 1}, -1, 0); err == nil {
		t.Error("negative time accepted")
	}
}

func TestTransientNoTransitions(t *testing.T) {
	c := New()
	c.AddState("a")
	c.AddState("b")
	d, err := c.Transient(Distribution{"a": 1}, 10, 0)
	if err != nil {
		t.Fatalf("Transient: %v", err)
	}
	if d.Probability("a") != 1 {
		t.Errorf("π(a) = %v, want 1", d.Probability("a"))
	}
}

func TestPointAvailability(t *testing.T) {
	cc, err := twoState(t, 1, 1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	d, err := cc.Transient(Distribution{"up": 1}, 100, 1e-12)
	if err != nil {
		t.Fatalf("Transient: %v", err)
	}
	a := d.SumOver(func(s string) bool { return s == "up" })
	if math.Abs(a-0.5) > 1e-9 {
		t.Errorf("A(∞) = %v, want 0.5", a)
	}
}

func TestDistributionHelpers(t *testing.T) {
	d := Distribution{"up": 0.6, "half": 0.3, "down": 0.1}
	up := d.SumOver(func(s string) bool { return s != "down" })
	if math.Abs(up-0.9) > 1e-15 {
		t.Errorf("SumOver = %v, want 0.9", up)
	}
	reward := d.ExpectedReward(func(s string) float64 {
		switch s {
		case "up":
			return 1
		case "half":
			return 0.5
		default:
			return 0
		}
	})
	if math.Abs(reward-0.75) > 1e-15 {
		t.Errorf("ExpectedReward = %v, want 0.75", reward)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := twoState(t, 2, 3)
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if !strings.Contains(string(data), `"from":"up"`) {
		t.Errorf("unexpected JSON: %s", data)
	}
	var back Chain
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	r, err := back.Rate("down", "up")
	if err != nil {
		t.Fatalf("Rate: %v", err)
	}
	if r != 3 {
		t.Errorf("round-tripped rate = %v, want 3", r)
	}
	pi1, _ := c.SteadyState()
	pi2, err := back.SteadyState()
	if err != nil {
		t.Fatalf("SteadyState after round trip: %v", err)
	}
	if math.Abs(pi1.Probability("up")-pi2.Probability("up")) > 1e-15 {
		t.Error("steady state changed across JSON round trip")
	}
}

func TestJSONRejectsBadSpec(t *testing.T) {
	var c Chain
	if err := json.Unmarshal([]byte(`{"transitions":[{"from":"a","to":"a","rate":1}]}`), &c); err == nil {
		t.Error("self-loop spec accepted")
	}
	if err := json.Unmarshal([]byte(`{"transitions":[{"from":"a","to":"b","rate":-2}]}`), &c); err == nil {
		t.Error("negative rate spec accepted")
	}
	if err := json.Unmarshal([]byte(`{bad json`), &c); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestStateIndexUnknown(t *testing.T) {
	c := New()
	if _, err := c.StateIndex("ghost"); err == nil {
		t.Error("unknown state accepted")
	}
	if _, err := c.Rate("ghost", "ghost2"); err == nil {
		t.Error("Rate with unknown states accepted")
	}
}
