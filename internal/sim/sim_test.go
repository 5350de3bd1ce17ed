package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/interaction"
	"repro/internal/opprofile"
	"repro/internal/repairmodel"
	"repro/internal/webfarm"
)

// testFarm uses a single time unit for all rates with reasonable (not
// extreme) separation between queueing and failure dynamics, so the
// composite analytic model is accurate and the simulation converges fast.
func testFarm() webfarm.Farm {
	return webfarm.Farm{
		Servers:      3,
		ArrivalRate:  5,
		ServiceRate:  4,
		BufferSize:   5,
		FailureRate:  0.002,
		RepairRate:   0.05,
		Coverage:     0.9,
		ReconfigRate: 0.5,
	}
}

func TestFarmSimulatorValidation(t *testing.T) {
	good := FarmSimulator{
		Servers: 1, ArrivalRate: 1, ServiceRate: 1, BufferSize: 1,
		FailureRate: 0.1, RepairRate: 1, Coverage: 1,
	}
	if _, err := good.Run(10, 1); err != nil {
		t.Fatalf("valid simulator rejected: %v", err)
	}
	bad := []func(*FarmSimulator){
		func(s *FarmSimulator) { s.Servers = 0 },
		func(s *FarmSimulator) { s.BufferSize = 0 },
		func(s *FarmSimulator) { s.ArrivalRate = 0 },
		func(s *FarmSimulator) { s.ServiceRate = math.NaN() },
		func(s *FarmSimulator) { s.FailureRate = -1 },
		func(s *FarmSimulator) { s.Coverage = 0 },
		func(s *FarmSimulator) { s.Coverage = 0.5 }, // missing reconfig rate
	}
	for i, mutate := range bad {
		s := good
		mutate(&s)
		if _, err := s.Run(10, 1); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := good.Run(0, 1); err == nil {
		t.Error("0 arrivals accepted")
	}
}

func TestFarmSimulatorDeterministic(t *testing.T) {
	s := FarmFromModel(testFarm())
	// FarmFromModel divides by 3600; undo for the single-unit test model.
	s = FarmSimulator{
		Servers: 3, ArrivalRate: 5, ServiceRate: 4, BufferSize: 5,
		FailureRate: 0.002, RepairRate: 0.05, Coverage: 0.9, ReconfigRate: 0.5,
	}
	r1, err := s.Run(20000, 42)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r2, err := s.Run(20000, 42)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r1.Availability != r2.Availability || r1.SimulatedTime != r2.SimulatedTime {
		t.Error("same seed produced different results")
	}
	r3, err := s.Run(20000, 43)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r1.Availability == r3.Availability && r1.SimulatedTime == r3.SimulatedTime {
		t.Error("different seeds produced identical trajectories")
	}
}

// The joint-process simulation must agree with the composite analytic model
// when the time scales are reasonably separated.
func TestFarmSimulatorMatchesAnalytic(t *testing.T) {
	farm := testFarm()
	want, err := farm.Availability()
	if err != nil {
		t.Fatalf("analytic availability: %v", err)
	}
	s := FarmSimulator{
		Servers:      farm.Servers,
		ArrivalRate:  farm.ArrivalRate,
		ServiceRate:  farm.ServiceRate,
		BufferSize:   farm.BufferSize,
		FailureRate:  farm.FailureRate,
		RepairRate:   farm.RepairRate,
		Coverage:     farm.Coverage,
		ReconfigRate: farm.ReconfigRate,
	}
	res, err := s.Run(800000, 7)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Allow three half-widths plus a small model-error term (the composite
	// model is an approximation for finite time-scale separation).
	tol := 3*res.CI95.HalfWidth + 0.01
	if math.Abs(res.Availability-want) > tol {
		t.Errorf("simulated %v vs analytic %v (tol %v)", res.Availability, want, tol)
	}
	if res.UpTimeFraction <= res.Availability-0.05 || res.UpTimeFraction > 1 {
		t.Errorf("up-time fraction %v inconsistent with availability %v", res.UpTimeFraction, res.Availability)
	}
}

// The imperfect-coverage path — uncovered failures taking the whole farm
// into manual reconfiguration — must reproduce the Figure 10 steady state.
// The closed form is first cross-checked against the generic CTMC solver on
// the same chain, then the simulation's structural up-time fraction is
// checked against the closed form and its per-request availability against
// the composite webfarm model.
func TestFarmSimulatorImperfectCoverage(t *testing.T) {
	farm := testFarm()
	farm.Coverage = 0.6 // uncovered failures frequent enough to observe

	ic := repairmodel.ImperfectCoverage{
		Servers:      farm.Servers,
		FailureRate:  farm.FailureRate,
		RepairRate:   farm.RepairRate,
		Coverage:     farm.Coverage,
		ReconfigRate: farm.ReconfigRate,
	}
	probs, err := ic.StateProbabilities()
	if err != nil {
		t.Fatalf("StateProbabilities: %v", err)
	}
	structural := 1 - probs.DownProbability()

	chain, err := ic.ToCTMC()
	if err != nil {
		t.Fatalf("ToCTMC: %v", err)
	}
	cc, err := chain.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	dist, err := cc.SteadyState()
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	var ctmcUp float64
	for i := 1; i <= farm.Servers; i++ {
		ctmcUp += dist[fmt.Sprintf("%d", i)]
	}
	if math.Abs(ctmcUp-structural) > 1e-9 {
		t.Errorf("closed form up-probability %v vs CTMC solver %v", structural, ctmcUp)
	}

	want, err := farm.Availability()
	if err != nil {
		t.Fatalf("composite availability: %v", err)
	}

	s := FarmSimulator{
		Servers:      farm.Servers,
		ArrivalRate:  farm.ArrivalRate,
		ServiceRate:  farm.ServiceRate,
		BufferSize:   farm.BufferSize,
		FailureRate:  farm.FailureRate,
		RepairRate:   farm.RepairRate,
		Coverage:     farm.Coverage,
		ReconfigRate: farm.ReconfigRate,
	}
	res, err := s.Run(800000, 11)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The structural down probability is ≈ 0.005 here, so a 0.002 tolerance
	// genuinely exercises the reconfiguration states.
	if math.Abs(res.UpTimeFraction-structural) > 0.002 {
		t.Errorf("simulated up-time fraction %v vs Figure 10 closed form %v", res.UpTimeFraction, structural)
	}
	tol := 3*res.CI95.HalfWidth + 0.01
	if math.Abs(res.Availability-want) > tol {
		t.Errorf("simulated %v vs composite model %v (tol %v)", res.Availability, want, tol)
	}
}

func TestFarmFromModelConvertsHours(t *testing.T) {
	s := FarmFromModel(testFarm())
	if math.Abs(s.FailureRate-0.002/3600) > 1e-15 {
		t.Errorf("failure rate = %v", s.FailureRate)
	}
	if s.ArrivalRate != 5 || s.BufferSize != 5 {
		t.Error("queue parameters must pass through unchanged")
	}
}

// buildVisitModel constructs a small two-function model with a shared "WS"
// service, returning the simulator and the matching analytic model.
func buildVisitModel(t *testing.T) (VisitSimulator, *hierarchy.Model) {
	t.Helper()
	profile := opprofile.New()
	add := func(from, to string, p float64) {
		t.Helper()
		if err := profile.AddTransition(from, to, p); err != nil {
			t.Fatalf("AddTransition: %v", err)
		}
	}
	add(opprofile.Start, "Home", 0.7)
	add(opprofile.Start, "Search", 0.3)
	add("Home", "Search", 0.4)
	add("Home", opprofile.Exit, 0.6)
	add("Search", "Home", 0.2)
	add("Search", opprofile.Exit, 0.8)

	mkDiagram := func(name string, services ...string) *interaction.Diagram {
		d := interaction.New(name)
		prev := interaction.Begin
		for _, svc := range services {
			step := name + "-" + svc
			if err := d.AddStep(step, svc); err != nil {
				t.Fatalf("AddStep: %v", err)
			}
			if err := d.AddTransition(prev, step, 1); err != nil {
				t.Fatalf("AddTransition: %v", err)
			}
			prev = step
		}
		if err := d.AddTransition(prev, interaction.End, 1); err != nil {
			t.Fatalf("AddTransition: %v", err)
		}
		return d
	}
	diagrams := map[string]*interaction.Diagram{
		"Home":   mkDiagram("Home", "WS"),
		"Search": mkDiagram("Search", "WS", "DB"),
	}
	avail := map[string]float64{"WS": 0.95, "DB": 0.9}

	model := hierarchy.New()
	for svc, a := range avail {
		if err := model.AddService(svc, a); err != nil {
			t.Fatalf("AddService: %v", err)
		}
	}
	for _, d := range diagrams {
		if err := model.AddFunction(d); err != nil {
			t.Fatalf("AddFunction: %v", err)
		}
	}
	if err := model.SetProfile(profile); err != nil {
		t.Fatalf("SetProfile: %v", err)
	}
	return VisitSimulator{
		Profile:             profile,
		Diagrams:            diagrams,
		ServiceAvailability: avail,
	}, model
}

func TestVisitSimulatorValidation(t *testing.T) {
	sim, _ := buildVisitModel(t)
	if _, err := (VisitSimulator{}).Run(10, 1); err == nil {
		t.Error("nil profile accepted")
	}
	broken := sim
	broken.Diagrams = map[string]*interaction.Diagram{}
	if _, err := broken.Run(10, 1); err == nil {
		t.Error("missing diagram accepted")
	}
	broken2 := sim
	broken2.ServiceAvailability = map[string]float64{"WS": 0.9}
	if _, err := broken2.Run(10, 1); err == nil {
		t.Error("missing service availability accepted")
	}
	if _, err := sim.Run(0, 1); err == nil {
		t.Error("0 visits accepted")
	}
}

// The visit simulation must agree with the hierarchy evaluation, which uses
// Shannon conditioning for the shared WS service.
func TestVisitSimulatorMatchesHierarchy(t *testing.T) {
	simulator, model := buildVisitModel(t)
	rep, err := model.Evaluate()
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	res, err := simulator.Run(400000, 11)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tol := 4 * res.CI95.HalfWidth
	if math.Abs(res.Availability-rep.UserAvailability) > tol {
		t.Errorf("simulated %v vs analytic %v (±%v)", res.Availability, rep.UserAvailability, tol)
	}
}

// Scenario frequencies observed in simulation must match the analytic
// scenario probabilities of the profile.
func TestVisitSimulatorScenarioFrequencies(t *testing.T) {
	simulator, _ := buildVisitModel(t)
	scenarios, err := simulator.Profile.Scenarios()
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	const visits = 200000
	res, err := simulator.Run(visits, 5)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, sc := range scenarios {
		got := float64(res.ScenarioCounts[sc.Key()]) / visits
		se := math.Sqrt(sc.Probability * (1 - sc.Probability) / visits) // binomial SE
		if math.Abs(got-sc.Probability) > 5*se+1e-4 {
			t.Errorf("scenario %q: simulated %v vs analytic %v", sc.Key(), got, sc.Probability)
		}
	}
}
