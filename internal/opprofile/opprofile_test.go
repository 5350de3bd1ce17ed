package opprofile

import (
	"math"
	"testing"

	"repro/internal/optimize"
)

func mustAdd(t *testing.T, p *Profile, from, to string, prob float64) {
	t.Helper()
	if err := p.AddTransition(from, to, prob); err != nil {
		t.Fatalf("AddTransition(%s, %s, %v): %v", from, to, prob, err)
	}
}

// linearProfile is Start → A → Exit with an optional self-revisit on A.
func linearProfile(t *testing.T, loop float64) *Profile {
	t.Helper()
	p := New()
	mustAdd(t, p, Start, "A", 1)
	if loop > 0 {
		mustAdd(t, p, "A", "A", loop)
	}
	mustAdd(t, p, "A", Exit, 1-loop)
	return p
}

func TestAddTransitionValidation(t *testing.T) {
	p := New()
	if err := p.AddTransition("A", Start, 0.5); err == nil {
		t.Error("transition into Start accepted")
	}
	if err := p.AddTransition(Exit, "A", 0.5); err == nil {
		t.Error("transition out of Exit accepted")
	}
	for _, bad := range []float64{0, -1, 1.5, math.NaN()} {
		if err := p.AddTransition("A", "B", bad); err == nil {
			t.Errorf("probability %v accepted", bad)
		}
	}
	if err := p.AddTransition("A", "B", 0.8); err != nil {
		t.Fatalf("AddTransition: %v", err)
	}
	if err := p.AddTransition("A", "B", 0.8); err == nil {
		t.Error("accumulated > 1 accepted")
	}
}

func TestValidate(t *testing.T) {
	p := New()
	if err := p.Validate(); err == nil {
		t.Error("empty profile accepted")
	}
	mustAdd(t, p, Start, "A", 1)
	mustAdd(t, p, "A", Exit, 0.5)
	if err := p.Validate(); err == nil {
		t.Error("sub-stochastic node accepted")
	}
	mustAdd(t, p, "A", Exit, 0.5)
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestScenariosLinear(t *testing.T) {
	p := linearProfile(t, 0)
	scenarios, err := p.Scenarios()
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	if len(scenarios) != 1 {
		t.Fatalf("got %d scenarios, want 1", len(scenarios))
	}
	sc := scenarios[0]
	if sc.Key() != "A" || math.Abs(sc.Probability-1) > 1e-12 {
		t.Errorf("scenario = %+v", sc)
	}
	if !sc.Invokes("A") || sc.Invokes("B") {
		t.Error("Invokes misreports")
	}
}

func TestScenariosWithLoopCollapse(t *testing.T) {
	// A revisits itself with probability 0.6: still one scenario class {A}
	// with probability 1 — cycles collapse into the same function set.
	p := linearProfile(t, 0.6)
	scenarios, err := p.Scenarios()
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	if len(scenarios) != 1 || math.Abs(scenarios[0].Probability-1) > 1e-10 {
		t.Errorf("scenarios = %+v", scenarios)
	}
}

func TestScenariosBranching(t *testing.T) {
	// Start → A (0.7) → Exit;  Start → B (0.3) → Exit.
	p := New()
	mustAdd(t, p, Start, "A", 0.7)
	mustAdd(t, p, Start, "B", 0.3)
	mustAdd(t, p, "A", Exit, 1)
	mustAdd(t, p, "B", Exit, 1)
	scenarios, err := p.Scenarios()
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	if len(scenarios) != 2 {
		t.Fatalf("got %d scenarios, want 2", len(scenarios))
	}
	if scenarios[0].Key() != "A" || math.Abs(scenarios[0].Probability-0.7) > 1e-12 {
		t.Errorf("scenarios[0] = %+v", scenarios[0])
	}
	if scenarios[1].Key() != "B" || math.Abs(scenarios[1].Probability-0.3) > 1e-12 {
		t.Errorf("scenarios[1] = %+v", scenarios[1])
	}
}

// A Figure-2-like alternation: Start → Ho; Ho → {Br, Exit}; Br → {Ho, Exit}.
// Scenario classes: {Ho} and {Ho, Br}; the alternation cycle collapses.
func TestScenariosAlternation(t *testing.T) {
	p := New()
	mustAdd(t, p, Start, "Home", 1)
	mustAdd(t, p, "Home", "Browse", 0.4)
	mustAdd(t, p, "Home", Exit, 0.6)
	mustAdd(t, p, "Browse", "Home", 0.5)
	mustAdd(t, p, "Browse", Exit, 0.5)
	scenarios, err := p.Scenarios()
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	byKey := make(map[string]float64)
	var total float64
	for _, sc := range scenarios {
		byKey[sc.Key()] = sc.Probability
		total += sc.Probability
	}
	if math.Abs(total-1) > 1e-10 {
		t.Errorf("Σ = %v", total)
	}
	// {Home} only requires exiting before ever reaching Browse: 0.6.
	// Any path that reaches Browse lands in {Home, Browse} forever: 0.4.
	if math.Abs(byKey["Home"]-0.6) > 1e-10 {
		t.Errorf("P({Home}) = %v, want 0.6", byKey["Home"])
	}
	if math.Abs(byKey["Browse+Home"]-0.4) > 1e-10 {
		t.Errorf("P({Home,Browse}) = %v, want 0.4", byKey["Browse+Home"])
	}
}

func TestScenariosDetectTrap(t *testing.T) {
	// B loops forever: visits entering B never exit.
	p := New()
	mustAdd(t, p, Start, "A", 1)
	mustAdd(t, p, "A", "B", 0.5)
	mustAdd(t, p, "A", Exit, 0.5)
	mustAdd(t, p, "B", "B", 1)
	if _, err := p.Scenarios(); err == nil {
		t.Error("profile with a trap accepted")
	}
}

func TestFunctionInvocationProbability(t *testing.T) {
	p := New()
	mustAdd(t, p, Start, "A", 1)
	mustAdd(t, p, "A", "B", 0.25)
	mustAdd(t, p, "A", Exit, 0.75)
	mustAdd(t, p, "B", Exit, 1)
	inv, err := p.FunctionInvocationProbability()
	if err != nil {
		t.Fatalf("FunctionInvocationProbability: %v", err)
	}
	if math.Abs(inv["A"]-1) > 1e-12 {
		t.Errorf("P(A) = %v, want 1", inv["A"])
	}
	if math.Abs(inv["B"]-0.25) > 1e-12 {
		t.Errorf("P(B) = %v, want 0.25", inv["B"])
	}
}

func TestScenarioKeyAndAccessors(t *testing.T) {
	if got := ScenarioKey([]string{"b", "a"}); got != "a+b" {
		t.Errorf("ScenarioKey = %q", got)
	}
	p := linearProfile(t, 0)
	if got := p.TransitionProbability(Start, "A"); got != 1 {
		t.Errorf("TransitionProbability = %v", got)
	}
	if g := p.Graph(); len(g.Succ[1]) != 1 || g.Succ[1][0].To != g.End || g.Succ[1][0].P != 1 {
		t.Errorf("Graph successors of A = %v", g.Succ[1])
	}
	if fns := p.Functions(); len(fns) != 1 || fns[0] != "A" {
		t.Errorf("Functions = %v", fns)
	}
}

// Fit must recover transition probabilities whose scenarios were generated
// by a known profile (round trip).
func TestFitRoundTrip(t *testing.T) {
	truth := New()
	mustAdd(t, truth, Start, "A", 0.6)
	mustAdd(t, truth, Start, "B", 0.4)
	mustAdd(t, truth, "A", "B", 0.3)
	mustAdd(t, truth, "A", Exit, 0.7)
	mustAdd(t, truth, "B", Exit, 1)
	targets, err := truth.Scenarios()
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	edges := []Edge{
		{Start, "A"}, {Start, "B"},
		{"A", "B"}, {"A", Exit},
		{"B", Exit},
	}
	res, err := Fit(edges, targets, optimize.Options{MaxIterations: 4000})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if res.Residual > 1e-4 {
		t.Fatalf("residual = %v", res.Residual)
	}
	if got := res.Profile.TransitionProbability(Start, "A"); math.Abs(got-0.6) > 0.01 {
		t.Errorf("fitted P(Start→A) = %v, want 0.6", got)
	}
	if got := res.Profile.TransitionProbability("A", "B"); math.Abs(got-0.3) > 0.01 {
		t.Errorf("fitted P(A→B) = %v, want 0.3", got)
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, []Scenario{{Functions: []string{"A"}, Probability: 1}}, optimize.Options{}); err == nil {
		t.Error("empty edges accepted")
	}
	if _, err := Fit([]Edge{{Start, "A"}}, nil, optimize.Options{}); err == nil {
		t.Error("empty targets accepted")
	}
}

func TestExpectedInvocations(t *testing.T) {
	// A revisits itself with probability 0.6: E[visits] = 1/(1−0.6) = 2.5.
	p := linearProfile(t, 0.6)
	inv, err := p.ExpectedInvocations()
	if err != nil {
		t.Fatalf("ExpectedInvocations: %v", err)
	}
	if math.Abs(inv["A"]-2.5) > 1e-10 {
		t.Errorf("E[A] = %v, want 2.5", inv["A"])
	}
}

func TestExpectedInvocationsBranching(t *testing.T) {
	// Start → A (1); A → B (0.25) | Exit (0.75); B → A (0.4) | Exit (0.6).
	// E[A] = 1/(1−0.25·0.4) = 1/0.9; E[B] = 0.25·E[A].
	p := New()
	mustAdd(t, p, Start, "A", 1)
	mustAdd(t, p, "A", "B", 0.25)
	mustAdd(t, p, "A", Exit, 0.75)
	mustAdd(t, p, "B", "A", 0.4)
	mustAdd(t, p, "B", Exit, 0.6)
	inv, err := p.ExpectedInvocations()
	if err != nil {
		t.Fatalf("ExpectedInvocations: %v", err)
	}
	wantA := 1 / 0.9
	if math.Abs(inv["A"]-wantA) > 1e-10 {
		t.Errorf("E[A] = %v, want %v", inv["A"], wantA)
	}
	if math.Abs(inv["B"]-0.25*wantA) > 1e-10 {
		t.Errorf("E[B] = %v, want %v", inv["B"], 0.25*wantA)
	}
	// E[invocations] ≥ P(invoked at least once), always.
	probs, err := p.FunctionInvocationProbability()
	if err != nil {
		t.Fatalf("FunctionInvocationProbability: %v", err)
	}
	for fn, e := range inv {
		if e < probs[fn]-1e-10 {
			t.Errorf("%s: E[invocations] %v < P(invoked) %v", fn, e, probs[fn])
		}
	}
}

func TestExpectedInvocationsInvalidProfile(t *testing.T) {
	p := New()
	mustAdd(t, p, Start, "A", 0.5) // sub-stochastic
	if _, err := p.ExpectedInvocations(); err == nil {
		t.Error("invalid profile accepted")
	}
}
