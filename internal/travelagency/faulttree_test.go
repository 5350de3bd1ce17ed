package travelagency

import (
	"testing"

	"repro/internal/faulttree"
)

// The fault-tree top-event probability must equal 1 − A(function) for the
// branch-free functions.
func TestFunctionFailureTreeMatchesAvailability(t *testing.T) {
	p := DefaultParams()
	closed, err := ClosedFormFunctionAvailabilities(p)
	if err != nil {
		t.Fatalf("ClosedFormFunctionAvailabilities: %v", err)
	}
	for _, fn := range []string{FnHome, FnSearch, FnBook, FnPay} {
		tree, err := FunctionFailureTree(p, fn)
		if err != nil {
			t.Fatalf("FunctionFailureTree(%s): %v", fn, err)
		}
		cc, err := faulttree.Compile(tree)
		if err != nil {
			t.Fatalf("Compile(%s): %v", fn, err)
		}
		top := cc.TopEventProbability()
		want := 1 - closed[fn]
		if relDiff(top, want) > 1e-9 {
			t.Errorf("%s: P(top) = %v, want 1−A = %v", fn, top, want)
		}
	}
}

func TestFunctionFailureTreeRejectsBrowse(t *testing.T) {
	if _, err := FunctionFailureTree(DefaultParams(), FnBrowse); err == nil {
		t.Error("Browse (branching) fault tree should be rejected")
	}
	if _, err := FunctionFailureTree(DefaultParams(), "nope"); err == nil {
		t.Error("unknown function accepted")
	}
}

// Minimal cut sets of the Search failure tree: six order-1 sets (Net, LAN,
// WS, AS, DS) — five actually — plus three order-N sets (all flights, all
// hotels, all cars).
func TestSearchCutSets(t *testing.T) {
	p := DefaultParams()
	p.FlightSystems, p.HotelSystems, p.CarSystems = 2, 2, 2
	tree, err := FunctionFailureTree(p, FnSearch)
	if err != nil {
		t.Fatalf("FunctionFailureTree: %v", err)
	}
	cuts := faulttree.MinimalCutSets(tree)
	var order1, order2 int
	for _, cs := range cuts {
		switch len(cs) {
		case 1:
			order1++
		case 2:
			order2++
		default:
			t.Errorf("unexpected cut-set order %d: %v", len(cs), cs)
		}
	}
	if order1 != 5 {
		t.Errorf("order-1 cut sets = %d, want 5 (Net, LAN, WS, AS, DS)", order1)
	}
	if order2 != 3 {
		t.Errorf("order-2 cut sets = %d, want 3 (flight/hotel/car pairs)", order2)
	}
}

func TestPayCutSetsAreAllSingletons(t *testing.T) {
	tree, err := FunctionFailureTree(DefaultParams(), FnPay)
	if err != nil {
		t.Fatalf("FunctionFailureTree: %v", err)
	}
	cuts := faulttree.MinimalCutSets(tree)
	if len(cuts) != 6 {
		t.Fatalf("cut sets = %v, want 6 singletons", cuts)
	}
	for _, cs := range cuts {
		if len(cs) != 1 {
			t.Errorf("non-singleton cut set %v for Pay", cs)
		}
	}
}
