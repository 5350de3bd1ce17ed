package hierarchy

import (
	"errors"
	"math"
	"testing"
)

// importanceModel: Home needs WS; Search needs WS+DB; 60/40 scenario split.
func importanceModel(t *testing.T) *Model {
	t.Helper()
	m := New()
	if err := m.AddService("WS", 0.95); err != nil {
		t.Fatal(err)
	}
	if err := m.AddService("DB", 0.90); err != nil {
		t.Fatal(err)
	}
	if err := m.AddFunction(simpleDiagram(t, "Home", "WS")); err != nil {
		t.Fatal(err)
	}
	if err := m.AddFunction(simpleDiagram(t, "Search", "WS", "DB")); err != nil {
		t.Fatal(err)
	}
	if err := m.SetScenarios([]UserScenario{
		{Name: "browse", Functions: []string{"Home"}, Probability: 0.6},
		{Name: "search", Functions: []string{"Home", "Search"}, Probability: 0.4},
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEvaluateWith(t *testing.T) {
	m := importanceModel(t)
	base, err := m.Evaluate()
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	// A(user) = 0.6·WS + 0.4·WS·DB.
	wantBase := 0.6*0.95 + 0.4*0.95*0.90
	if math.Abs(base.UserAvailability-wantBase) > 1e-12 {
		t.Fatalf("base = %v, want %v", base.UserAvailability, wantBase)
	}
	patched, err := m.EvaluateWith(map[string]float64{"DB": 1})
	if err != nil {
		t.Fatalf("EvaluateWith: %v", err)
	}
	if math.Abs(patched.UserAvailability-0.95) > 1e-12 {
		t.Errorf("patched = %v, want 0.95", patched.UserAvailability)
	}
	// The model itself must be untouched.
	again, err := m.Evaluate()
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if math.Abs(again.UserAvailability-wantBase) > 1e-12 {
		t.Errorf("EvaluateWith mutated the model: %v", again.UserAvailability)
	}
}

func TestEvaluateWithValidation(t *testing.T) {
	m := importanceModel(t)
	if _, err := m.EvaluateWith(map[string]float64{"ghost": 1}); err == nil {
		t.Error("override for unknown service accepted")
	}
	if _, err := m.EvaluateWith(map[string]float64{"WS": 1.5}); err == nil {
		t.Error("invalid override accepted")
	}
}

func TestServiceImportances(t *testing.T) {
	m := importanceModel(t)
	imps, err := m.ServiceImportances()
	if err != nil {
		t.Fatalf("ServiceImportances: %v", err)
	}
	if len(imps) != 2 {
		t.Fatalf("got %d importances", len(imps))
	}
	// WS gates every scenario: Birnbaum = 0.6 + 0.4·0.9 = 0.96.
	// DB gates only the search scenario: Birnbaum = 0.4·0.95 = 0.38.
	if imps[0].Service != "WS" || math.Abs(imps[0].Birnbaum-0.96) > 1e-12 {
		t.Errorf("imps[0] = %+v, want WS 0.96", imps[0])
	}
	if imps[1].Service != "DB" || math.Abs(imps[1].Birnbaum-0.38) > 1e-12 {
		t.Errorf("imps[1] = %+v, want DB 0.38", imps[1])
	}
	// Risk reduction: fixing WS gains (1−0.95)·Birnbaum(WS).
	wantRR := 0.05 * 0.96
	if math.Abs(imps[0].RiskReduction-wantRR) > 1e-12 {
		t.Errorf("WS risk reduction = %v, want %v", imps[0].RiskReduction, wantRR)
	}
}

// TestEvaluateVector checks the vector entry point against EvaluateWith bit
// for bit, its argument checks, and that it leaves its argument alone.
func TestEvaluateVector(t *testing.T) {
	m := importanceModel(t)
	if names := m.ServiceNames(); len(names) != 2 || names[0] != "WS" || names[1] != "DB" {
		t.Fatalf("ServiceNames = %v, want [WS DB]", names)
	}
	avail := []float64{0.99, 0.7}
	got, err := m.EvaluateVector(avail)
	if err != nil {
		t.Fatalf("EvaluateVector: %v", err)
	}
	want, err := m.EvaluateWith(map[string]float64{"WS": 0.99, "DB": 0.7})
	if err != nil {
		t.Fatalf("EvaluateWith: %v", err)
	}
	if math.Float64bits(got.UserAvailability) != math.Float64bits(want.UserAvailability) {
		t.Errorf("EvaluateVector %v, EvaluateWith %v", got.UserAvailability, want.UserAvailability)
	}
	for name, a := range want.Functions {
		if math.Float64bits(got.Functions[name]) != math.Float64bits(a) {
			t.Errorf("function %s: %v, want %v", name, got.Functions[name], a)
		}
	}
	if got.Services["WS"] != 0.99 || got.Services["DB"] != 0.7 || avail[0] != 0.99 || avail[1] != 0.7 {
		t.Errorf("services %v from argument %v", got.Services, avail)
	}
	for _, bad := range [][]float64{nil, {0.9}, {0.9, 0.9, 0.9}, {0.9, -0.1}, {1.5, 0.9}, {math.NaN(), 0.9}} {
		if _, err := m.EvaluateVector(bad); !errors.Is(err, ErrModel) {
			t.Errorf("EvaluateVector(%v) error %v, want ErrModel", bad, err)
		}
	}
	if _, err := New().EvaluateVector(nil); !errors.Is(err, ErrModel) {
		t.Errorf("EvaluateVector without scenarios: %v, want ErrModel", err)
	}
}
