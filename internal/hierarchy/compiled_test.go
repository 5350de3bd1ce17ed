package hierarchy

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/interaction"
)

// referenceScenarioAvailability is the string-keyed enumerator the compiled
// program replaced, kept as the reference the program is fuzzed against:
// it conditions on all 2^|S| joint states of every service the scenario
// touches, with a map lookup per state and service.
func referenceScenarioAvailability(m *Model, sc UserScenario, avail map[string]float64) (float64, error) {
	funcScenarios := make(map[string][]interaction.Scenario)
	for _, fn := range sc.Functions {
		scs, err := m.functions[fn].Scenarios()
		if err != nil {
			return 0, err
		}
		funcScenarios[fn] = scs
	}
	svcSet := make(map[string]bool)
	for _, fn := range sc.Functions {
		for _, fsc := range funcScenarios[fn] {
			for _, svc := range fsc.Services {
				svcSet[svc] = true
			}
		}
	}
	var services []string
	for svc := range svcSet {
		services = append(services, svc)
	}
	sort.Strings(services)
	if len(services) > maxScenarioServices {
		return 0, fmt.Errorf("%w: scenario %q touches %d services, exceeding the decomposition limit %d", ErrModel, sc.Name, len(services), maxScenarioServices)
	}
	bit := make(map[string]int)
	for i, svc := range services {
		bit[svc] = i
	}
	var reqs []svcReq
	var ends []int
	for _, fn := range sc.Functions {
		for _, fsc := range funcScenarios[fn] {
			mask := 0
			for _, svc := range fsc.Services {
				mask |= 1 << bit[svc]
			}
			reqs = append(reqs, svcReq{mask: mask, prob: fsc.Probability})
		}
		ends = append(ends, len(reqs))
	}

	var total float64
	for up := 0; up < 1<<len(services); up++ {
		weight := 1.0
		for i, svc := range services {
			if up&(1<<i) != 0 {
				weight *= avail[svc]
			} else {
				weight *= 1 - avail[svc]
			}
			if weight == 0 {
				break
			}
		}
		if weight == 0 {
			continue
		}
		joint := 1.0
		start := 0
		for _, end := range ends {
			var succ float64
			for _, r := range reqs[start:end] {
				if r.mask&^up == 0 {
					succ += r.prob
				}
			}
			start = end
			joint *= succ
			if joint == 0 {
				break
			}
		}
		total += weight * joint
	}
	return total, nil
}

// referenceReport evaluates every scenario and the user availability with
// the reference enumerator.
func referenceReport(t testing.TB, m *Model) ([]float64, float64, error) {
	t.Helper()
	avail := make(map[string]float64)
	for _, s := range m.services {
		a := s.value
		if s.eval != nil {
			var err error
			if a, err = s.eval(); err != nil {
				t.Fatalf("service %q: %v", s.name, err)
			}
		}
		avail[s.name] = a
	}
	scenarios := make([]float64, len(m.scenarios))
	var user float64
	for i, sc := range m.scenarios {
		a, err := referenceScenarioAvailability(m, sc, avail)
		if err != nil {
			return nil, 0, err
		}
		scenarios[i] = a
		user += sc.Probability * a
	}
	return scenarios, math.Min(1, math.Max(0, user)), nil
}

// closeRel reports whether got is within 1e-15 of want, relative to want.
func closeRel(got, want float64) bool {
	return math.Abs(got-want) <= 1e-15*math.Abs(want)
}

// checkAgainstReference evaluates m both ways and fails on any scenario or
// user availability further apart than closeRel, or on differing errors.
func checkAgainstReference(t testing.TB, m *Model) {
	t.Helper()
	wantScenarios, wantUser, wantErr := referenceReport(t, m)
	rep, err := m.Evaluate()
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("Evaluate error %v, reference error %v", err, wantErr)
		}
		return
	}
	for i, sc := range rep.Scenarios {
		if !closeRel(sc.Availability, wantScenarios[i]) {
			t.Errorf("scenario %q: compiled %v, reference %v", sc.Name, sc.Availability, wantScenarios[i])
		}
	}
	if !closeRel(rep.UserAvailability, wantUser) {
		t.Errorf("user: compiled %v, reference %v", rep.UserAvailability, wantUser)
	}
}

// edgeAvailabilities are the numeric edges the fuzzer draws from, beside
// ordinary values.
var edgeAvailabilities = []float64{0, 1e-300, 1 - 1e-16, 1}

// byteReader hands out fuzz bytes, then zeros.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// fuzzModel decodes a model from fuzz bytes: up to 4 services with edge or
// ordinary availabilities, up to 4 functions of up to 4 branches each
// (Begin → one step per branch → End; a branch may require no service), and
// up to 4 scenarios over subsets of the functions.
//
// Four services keep the reference's own rounding inside the tolerance: it
// sums up to 2^|S| terms, and with eight services it drifted 1.8e-15 from
// the compiled value, which was the closer of the two to the exact one.
func fuzzModel(t testing.TB, data []byte) *Model {
	t.Helper()
	r := byteReader(data)
	m := New()
	nSvc := 1 + r.next()%4
	for i := 0; i < nSvc; i++ {
		b := r.next()
		a := float64(b) / 255
		if b%2 == 0 {
			a = edgeAvailabilities[(b/2)%len(edgeAvailabilities)]
		}
		if err := m.AddService(fmt.Sprintf("s%d", i), a); err != nil {
			t.Fatal(err)
		}
	}
	nFunc := 1 + r.next()%4
	for f := 0; f < nFunc; f++ {
		d := interaction.New(fmt.Sprintf("f%d", f))
		nBranch := 1 + r.next()%4
		weights := make([]float64, nBranch)
		var sum float64
		for b := range weights {
			weights[b] = float64(1 + r.next()%8)
			sum += weights[b]
		}
		for b := range weights {
			mask := r.next() // bits past nSvc are ignored
			var svcs []string
			for i := 0; i < nSvc; i++ {
				if mask&(1<<i) != 0 {
					svcs = append(svcs, fmt.Sprintf("s%d", i))
				}
			}
			step := fmt.Sprintf("b%d", b)
			if err := d.AddStep(step, svcs...); err != nil {
				t.Fatal(err)
			}
			if err := d.AddTransition(interaction.Begin, step, weights[b]/sum); err != nil {
				t.Fatal(err)
			}
			if err := d.AddTransition(step, interaction.End, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.AddFunction(d); err != nil {
			t.Fatal(err)
		}
	}
	nScen := 1 + r.next()%4
	scenarios := make([]UserScenario, nScen)
	for s := range scenarios {
		set := r.next() % (1 << nFunc)
		if set == 0 {
			set = 1<<nFunc - 1
		}
		var fns []string
		for f := 0; f < nFunc; f++ {
			if set&(1<<f) != 0 {
				fns = append(fns, fmt.Sprintf("f%d", f))
			}
		}
		scenarios[s] = UserScenario{Name: fmt.Sprintf("sc%d", s), Functions: fns, Probability: 1 / float64(nScen)}
	}
	if err := m.SetScenarios(scenarios); err != nil {
		t.Fatal(err)
	}
	return m
}

// FuzzScenarioAvailability pins the compiled, factorised user layer to the
// reference enumerator at 1e-15 relative tolerance.
func FuzzScenarioAvailability(f *testing.F) {
	f.Add([]byte{})
	// Every service essential: single-branch functions over edge values.
	f.Add([]byte{3, 2, 4, 6, 127, 1, 0, 0, 3, 0, 0, 12, 1, 1, 3})
	// No service essential: every function has a branch requiring nothing.
	f.Add([]byte{3, 229, 2, 4, 0, 1, 2, 0, 1, 2, 0, 3, 4, 1, 0, 0, 8, 0, 0, 3})
	// Essential and free services mixed across three scenarios.
	f.Add([]byte{3, 2, 4, 201, 6, 2, 1, 0, 3, 3, 5, 1, 1, 1, 10, 0, 0, 0, 4, 2, 3, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, fuzzModel(t, data))
	})
}

// linearFunction declares a function whose single branch requires every
// listed service.
func linearFunction(t *testing.T, name string, services ...string) *interaction.Diagram {
	t.Helper()
	d := interaction.New(name)
	if err := d.AddStep("all", services...); err != nil {
		t.Fatal(err)
	}
	if err := d.AddTransition(interaction.Begin, "all", 1); err != nil {
		t.Fatal(err)
	}
	if err := d.AddTransition("all", interaction.End, 1); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCompiledEveryServiceEssential: single-branch functions leave no free
// service, so each scenario is a plain product of its services.
func TestCompiledEveryServiceEssential(t *testing.T) {
	m := New()
	for i, a := range []float64{0.9, 1e-300, 1 - 1e-16, 1, 0.5} {
		if err := m.AddService(fmt.Sprintf("s%d", i), a); err != nil {
			t.Fatal(err)
		}
	}
	for _, fn := range []*interaction.Diagram{
		linearFunction(t, "F", "s0", "s2", "s4"),
		linearFunction(t, "G", "s1", "s3"),
	} {
		if err := m.AddFunction(fn); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SetScenarios([]UserScenario{
		{Name: "F", Functions: []string{"F"}, Probability: 0.5},
		{Name: "FG", Functions: []string{"F", "G"}, Probability: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	prog, err := m.program()
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range prog.scenarios {
		if len(sp.free) != 0 {
			t.Errorf("scenario %d: free services %v, want none", i, sp.free)
		}
	}
	checkAgainstReference(t, m)
}

// TestCompiledNoServiceEssential: every function can succeed without any
// service, so nothing factors out and the program enumerates every touched
// service.
func TestCompiledNoServiceEssential(t *testing.T) {
	m := New()
	for i, a := range []float64{0.9, 1e-300, 1 - 1e-16, 0, 0.7} {
		if err := m.AddService(fmt.Sprintf("s%d", i), a); err != nil {
			t.Fatal(err)
		}
	}
	for f, branches := range [][][]string{
		{{}, {"s0", "s1"}, {"s2"}},
		{{"s3", "s4"}, {}},
	} {
		d := interaction.New(fmt.Sprintf("f%d", f))
		for b, svcs := range branches {
			step := fmt.Sprintf("b%d", b)
			if err := d.AddStep(step, svcs...); err != nil {
				t.Fatal(err)
			}
			if err := d.AddTransition(interaction.Begin, step, 1/float64(len(branches))); err != nil {
				t.Fatal(err)
			}
			if err := d.AddTransition(step, interaction.End, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.AddFunction(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SetScenarios([]UserScenario{{Name: "both", Functions: []string{"f0", "f1"}, Probability: 1}}); err != nil {
		t.Fatal(err)
	}
	prog, err := m.program()
	if err != nil {
		t.Fatal(err)
	}
	if sp := prog.scenarios[0]; len(sp.essential) != 0 || len(sp.free) != 5 {
		t.Errorf("essential %v, free %v; want none and all five", sp.essential, sp.free)
	}
	checkAgainstReference(t, m)
}

// limitModel declares n services spread over two linear functions (a
// diagram holds at most 16) and one scenario invoking both.
func limitModel(t *testing.T, n int) *Model {
	t.Helper()
	m := New()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i)
		if err := m.AddService(names[i], 0.99); err != nil {
			t.Fatal(err)
		}
	}
	for _, fn := range []*interaction.Diagram{
		linearFunction(t, "F", names[:n/2]...),
		linearFunction(t, "G", names[n/2:]...),
	} {
		if err := m.AddFunction(fn); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SetScenarios([]UserScenario{{Name: "wide", Functions: []string{"F", "G"}, Probability: 1}}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestScenarioServiceLimit: the union check runs before the factorisation,
// so a scenario touching more than 20 services is rejected even though all
// of them are essential, with the reference's error.
func TestScenarioServiceLimit(t *testing.T) {
	checkAgainstReference(t, limitModel(t, maxScenarioServices))
	m := limitModel(t, maxScenarioServices+1)
	_, err := m.Evaluate()
	if err == nil || !strings.Contains(err.Error(), "touches 21 services, exceeding the decomposition limit 20") {
		t.Fatalf("Evaluate error %v, want the decomposition limit", err)
	}
	checkAgainstReference(t, m)
}

// staleModel is a two-service, two-function model whose evaluation has
// compiled the program.
func staleModel(t *testing.T) (*Model, *interaction.Diagram) {
	t.Helper()
	m := New()
	_ = m.AddService("WS", 0.9)
	_ = m.AddService("DB", 0.8)
	search := simpleDiagram(t, "Search", "WS", "DB")
	_ = m.AddFunction(simpleDiagram(t, "Home", "WS"))
	_ = m.AddFunction(search)
	if err := m.SetScenarios([]UserScenario{{Name: "home", Functions: []string{"Home"}, Probability: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Evaluate(); err != nil {
		t.Fatal(err)
	}
	return m, search
}

// TestStructuralEditsRecompile: every structural edit after an evaluation,
// including mutating a registered diagram, must rebuild the program rather
// than serve the numbers of the old structure.
func TestStructuralEditsRecompile(t *testing.T) {
	t.Run("AddService", func(t *testing.T) {
		m, _ := staleModel(t)
		if err := m.AddService("Ext", 0.5); err != nil {
			t.Fatal(err)
		}
		if err := m.AddFunction(simpleDiagram(t, "Book", "Ext")); err != nil {
			t.Fatal(err)
		}
		if err := m.SetScenarios([]UserScenario{{Name: "book", Functions: []string{"Home", "Book"}, Probability: 1}}); err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, m)
	})
	t.Run("AddFunction", func(t *testing.T) {
		m, _ := staleModel(t)
		if err := m.AddFunction(simpleDiagram(t, "Pay", "DB")); err != nil {
			t.Fatal(err)
		}
		rep, err := m.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Functions["Pay"]; got != 0.8 {
			t.Errorf("A(Pay) = %v, want 0.8", got)
		}
	})
	t.Run("SetScenarios", func(t *testing.T) {
		m, _ := staleModel(t)
		if err := m.SetScenarios([]UserScenario{{Name: "search", Functions: []string{"Home", "Search"}, Probability: 1}}); err != nil {
			t.Fatal(err)
		}
		rep, err := m.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		if want := 0.9 * 0.8; math.Abs(rep.UserAvailability-want) > 1e-15 {
			t.Errorf("A(user) = %v, want %v", rep.UserAvailability, want)
		}
	})
	t.Run("DiagramMutation", func(t *testing.T) {
		m, search := staleModel(t)
		if err := m.SetScenarios([]UserScenario{{Name: "search", Functions: []string{"Search"}, Probability: 1}}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Evaluate(); err != nil {
			t.Fatal(err)
		}
		// Diagram edits are additive, so an edit that changes the scenarios
		// leaves the diagram invalid until it is completed: the model must
		// report that, not the numbers of the old diagram.
		if err := search.AddStep("cache", "WS"); err != nil {
			t.Fatal(err)
		}
		if err := search.AddTransition("cache", interaction.End, 1); err != nil {
			t.Fatal(err)
		}
		if err := search.AddTransition(interaction.Begin, "cache", 0.5); err != nil {
			t.Fatal(err)
		}
		if rep, err := m.Evaluate(); !errors.Is(err, interaction.ErrDiagram) {
			t.Fatalf("Evaluate after diagram mutation = %v, %v; want the diagram error", rep, err)
		}
	})
}

// TestSetServiceAvailabilityRefresh: a refresh keeps the compiled program
// and serves the new number; it rejects undeclared services and values
// outside [0, 1].
func TestSetServiceAvailabilityRefresh(t *testing.T) {
	m, _ := staleModel(t)
	before, err := m.program()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetServiceAvailability("WS", 0.5); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.UserAvailability != 0.5 {
		t.Errorf("A(user) = %v, want 0.5", rep.UserAvailability)
	}
	if after, _ := m.program(); after != before {
		t.Error("refresh recompiled the program")
	}
	if err := m.SetServiceAvailability("ghost", 0.5); err == nil {
		t.Error("refresh of an undeclared service accepted")
	}
	for _, a := range []float64{-0.1, 1.1, math.NaN()} {
		if err := m.SetServiceAvailability("WS", a); err == nil {
			t.Errorf("availability %v accepted", a)
		}
	}
}

// TestConcurrentEvaluation runs Evaluate, EvaluateWith and
// ServiceImportances concurrently on one model (meaningful under -race):
// EvaluateWith must not touch the model, and the lazily built program is
// shared safely.
func TestConcurrentEvaluation(t *testing.T) {
	m := importanceModel(t)
	wantBase := 0.6*0.95 + 0.4*0.95*0.90
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rep, err := m.Evaluate()
				if err != nil {
					t.Error(err)
					return
				}
				if math.Abs(rep.UserAvailability-wantBase) > 1e-15 {
					t.Errorf("Evaluate = %v, want %v", rep.UserAvailability, wantBase)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rep, err := m.EvaluateWith(map[string]float64{"DB": 1})
				if err != nil {
					t.Error(err)
					return
				}
				if math.Abs(rep.UserAvailability-0.95) > 1e-15 {
					t.Errorf("EvaluateWith = %v, want 0.95", rep.UserAvailability)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				imps, err := m.ServiceImportances()
				if err != nil {
					t.Error(err)
					return
				}
				if imps[0].Service != "WS" || math.Abs(imps[0].Birnbaum-0.96) > 1e-15 {
					t.Errorf("importances %+v", imps)
					return
				}
			}
		}()
	}
	wg.Wait()
}
