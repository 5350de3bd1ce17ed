package travelagency

import (
	"fmt"

	"repro/internal/hierarchy"
	"repro/internal/opprofile"
	"repro/internal/optimize"
)

// UserClass identifies one of the paper's two customer profiles (Table 1).
type UserClass int

const (
	// ClassA users mostly seek information without buying intention: ~7% of
	// visits end with a payment.
	ClassA UserClass = iota + 1
	// ClassB users mostly intend to book: ~20% of visits end with a payment.
	ClassB
)

// String implements fmt.Stringer.
func (c UserClass) String() string {
	switch c {
	case ClassA:
		return "class A"
	case ClassB:
		return "class B"
	default:
		return fmt.Sprintf("UserClass(%d)", int(c))
	}
}

// Category groups user scenarios as in Figure 13.
type Category int

const (
	// SC1: Home and/or Browse only (scenarios 1–3).
	SC1 Category = iota + 1
	// SC2: Search invoked, no Book or Pay (scenarios 4–6).
	SC2
	// SC3: Book invoked, no Pay (scenarios 7–9).
	SC3
	// SC4: Pay reached (scenarios 10–12).
	SC4
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case SC1:
		return "SC1 (Home/Browse)"
	case SC2:
		return "SC2 (Search)"
	case SC3:
		return "SC3 (Book)"
	case SC4:
		return "SC4 (Pay)"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// scenarioDef is one row of Table 1.
type scenarioDef struct {
	name      string
	functions []string
	category  Category
	probA     float64 // class A probability, percent
	probB     float64 // class B probability, percent
}

// table1 lists the twelve user execution scenarios of Table 1 with their
// class A and class B probabilities in percent.
var table1 = []scenarioDef{
	{"1: St-Ho-Ex", []string{FnHome}, SC1, 10.0, 10.0},
	{"2: St-Br-Ex", []string{FnBrowse}, SC1, 26.7, 6.6},
	{"3: St-{Ho-Br}*-Ex", []string{FnHome, FnBrowse}, SC1, 11.3, 4.2},
	{"4: St-Ho-Se-Ex", []string{FnHome, FnSearch}, SC2, 18.4, 13.9},
	{"5: St-Br-Se-Ex", []string{FnBrowse, FnSearch}, SC2, 12.2, 20.4},
	{"6: St-{Ho-Br}*-Se-Ex", []string{FnHome, FnBrowse, FnSearch}, SC2, 7.6, 9.7},
	{"7: St-Ho-{Se-Bo}*-Ex", []string{FnHome, FnSearch, FnBook}, SC3, 3.0, 4.7},
	{"8: St-Br-{Se-Bo}*-Ex", []string{FnBrowse, FnSearch, FnBook}, SC3, 2.0, 6.9},
	{"9: St-{Ho-Br}*-{Se-Bo}*-Ex", []string{FnHome, FnBrowse, FnSearch, FnBook}, SC3, 1.3, 3.3},
	{"10: St-Ho-{Se-Bo}*-Pa-Ex", []string{FnHome, FnSearch, FnBook, FnPay}, SC4, 3.6, 6.4},
	{"11: St-Br-{Se-Bo}*-Pa-Ex", []string{FnBrowse, FnSearch, FnBook, FnPay}, SC4, 2.4, 9.4},
	{"12: St-{Ho-Br}*-{Se-Bo}*-Pa-Ex", []string{FnHome, FnBrowse, FnSearch, FnBook, FnPay}, SC4, 1.5, 4.5},
}

// Scenarios returns the Table 1 user scenarios of the given class as
// hierarchy scenarios (probabilities normalized from percent).
func Scenarios(class UserClass) ([]hierarchy.UserScenario, error) {
	if class != ClassA && class != ClassB {
		return nil, fmt.Errorf("%w: user class %v", ErrParams, class)
	}
	out := make([]hierarchy.UserScenario, 0, len(table1))
	for _, def := range table1 {
		p := def.probA
		if class == ClassB {
			p = def.probB
		}
		out = append(out, hierarchy.UserScenario{
			Name:        def.name,
			Functions:   append([]string(nil), def.functions...),
			Probability: p / 100,
		})
	}
	return out, nil
}

// Figure2Edges is the transition structure of the Figure 2 operational
// profile graph.
//
//ta:deterministic
func Figure2Edges() []opprofile.Edge {
	const (
		st = opprofile.Start
		ex = opprofile.Exit
		ho = FnHome
		br = FnBrowse
		se = FnSearch
		bo = FnBook
		pa = FnPay
	)
	return []opprofile.Edge{
		{From: st, To: ho}, {From: st, To: br},
		{From: ho, To: br}, {From: ho, To: se}, {From: ho, To: ex},
		{From: br, To: ho}, {From: br, To: se}, {From: br, To: ex},
		{From: se, To: bo}, {From: se, To: ex},
		{From: bo, To: se}, {From: bo, To: pa}, {From: bo, To: ex},
		{From: pa, To: ex},
	}
}

// FitProfile calibrates the Figure 2 transition probabilities to the Table 1
// scenario probabilities of one user class: the operational profile that
// visit simulations walk.
//
//ta:deterministic
func FitProfile(class UserClass) (opprofile.FitResult, error) {
	scenarios, err := Scenarios(class)
	if err != nil {
		return opprofile.FitResult{}, err
	}
	targets := make([]opprofile.Scenario, 0, len(scenarios))
	for _, sc := range scenarios {
		targets = append(targets, opprofile.Scenario{
			Functions:   sc.Functions,
			Probability: sc.Probability,
		})
	}
	return opprofile.Fit(Figure2Edges(), targets, optimize.Options{MaxIterations: 8000})
}

// ScenarioCategory returns the Figure 13 category of a Table 1 scenario
// name, or an error for unknown names.
func ScenarioCategory(name string) (Category, error) {
	for _, def := range table1 {
		if def.name == name {
			return def.category, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown scenario %q", ErrParams, name)
}

// Categories returns the four Figure 13 categories in order.
func Categories() []Category { return []Category{SC1, SC2, SC3, SC4} }
