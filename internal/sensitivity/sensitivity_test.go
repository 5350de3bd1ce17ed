package sensitivity

import (
	"math"
	"testing"
)

func TestElasticityPowerLaw(t *testing.T) {
	// R = p³ has elasticity exactly 3 everywhere.
	e, err := Elasticity(func(p float64) (float64, error) { return p * p * p, nil }, 0.7, 0)
	if err != nil {
		t.Fatalf("Elasticity: %v", err)
	}
	if math.Abs(e-3) > 1e-6 {
		t.Errorf("elasticity = %v, want 3", e)
	}
	// A multiplying factor (R = c·p) has elasticity 1: the paper's
	// "first order" parameters.
	e, err = Elasticity(func(p float64) (float64, error) { return 42 * p, nil }, 0.9966, 0)
	if err != nil {
		t.Fatalf("Elasticity: %v", err)
	}
	if math.Abs(e-1) > 1e-6 {
		t.Errorf("elasticity = %v, want 1", e)
	}
}

func TestElasticityValidation(t *testing.T) {
	if _, err := Elasticity(nil, 1, 0); err == nil {
		t.Error("nil evaluator accepted")
	}
	if _, err := Elasticity(func(float64) (float64, error) { return 1, nil }, 0, 0); err == nil {
		t.Error("evaluation at 0 accepted")
	}
	if _, err := Elasticity(func(float64) (float64, error) { return 0, nil }, 1, 0); err == nil {
		t.Error("zero result accepted")
	}
}

func TestTornado(t *testing.T) {
	base := map[string]float64{"a": 1, "b": 1, "c": 1}
	ranges := map[string]Range{
		"a": {Low: 0.5, High: 1.5}, // swing 10
		"b": {Low: 0.9, High: 1.1}, // swing 0.2
	}
	eval := func(v map[string]float64) (float64, error) {
		return 10*v["a"] + v["b"] + 0*v["c"], nil
	}
	entries, err := Tornado(base, ranges, eval)
	if err != nil {
		t.Fatalf("Tornado: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries", len(entries))
	}
	if entries[0].Name != "a" || math.Abs(entries[0].Swing()-10) > 1e-12 {
		t.Errorf("entries[0] = %+v", entries[0])
	}
	if entries[1].Name != "b" || math.Abs(entries[1].Swing()-0.2) > 1e-12 {
		t.Errorf("entries[1] = %+v", entries[1])
	}
	if entries[0].AtLow != 10*0.5+1 || entries[0].AtHigh != 10*1.5+1 {
		t.Errorf("endpoint outputs wrong: %+v", entries[0])
	}
}

func TestTornadoValidation(t *testing.T) {
	eval := func(map[string]float64) (float64, error) { return 0, nil }
	if _, err := Tornado(nil, map[string]Range{"a": {}}, eval); err == nil {
		t.Error("empty base accepted")
	}
	if _, err := Tornado(map[string]float64{"a": 1}, map[string]Range{"zzz": {}}, eval); err == nil {
		t.Error("unknown parameter range accepted")
	}
}
