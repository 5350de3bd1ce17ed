// Package hierarchy implements the paper's four-level dependability-modeling
// framework (Figure 1): resources feed services, services feed functions,
// functions feed the user-perceived measure.
//
//   - Service level: each service's availability is supplied directly, from
//     a reliability block diagram over resources (package rbd), or from an
//     arbitrary evaluator (e.g. the composite web-farm model of package
//     webfarm).
//   - Function level: each function is an interaction diagram (package
//     interaction) over the declared services; its availability is the
//     branch-weighted product of Table 6.
//   - User level: a set of user scenarios (package opprofile) with
//     activation probabilities; the user-perceived availability is
//     Σ_i π_i·A(scenario i), where A(scenario) is the probability that every
//     function invoked by the scenario succeeds.
//
// The user level is where shared services matter ("a careful analysis of the
// dependencies that might exist among the functions due to shared services
// or resources is needed", §4.3): a scenario invoking Home, Browse and
// Search must count the web service once, not three times. Evaluate
// therefore conditions on the joint up/down state of the services involved
// in a scenario (Shannon decomposition) instead of multiplying function
// availabilities.
//
// The decomposition is compiled once per model structure. Services are
// interned to indices, so an evaluation runs over a []float64 of service
// availabilities: EvaluateVector takes that vector directly, in declaration
// order, and Evaluate and EvaluateWith first resolve it from the services'
// values, evaluators and overrides. A service is essential to a scenario
// when some invoked function requires it on every branch: the scenario
// fails whenever it is down, so it multiplies straight out of the sum, and
// only the k remaining free services are enumerated:
//
//	A(scenario) = Π A(essential) · Σ over the 2^k free-service states.
//
// SetServiceAvailability refreshes a number and keeps the compiled program;
// AddService*, AddFunction, SetScenarios, SetProfile and any mutation of a
// registered diagram recompile it on the next evaluation.
package hierarchy

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/interaction"
	"repro/internal/opprofile"
	"repro/internal/rbd"
)

// ErrModel is returned for malformed models.
var ErrModel = errors.New("hierarchy: invalid model")

// maxScenarioServices bounds the per-scenario Shannon decomposition.
const maxScenarioServices = 20

// Model is a four-level availability model under construction. Evaluate,
// EvaluateVector, EvaluateWith and ServiceImportances are safe for
// concurrent use with each other; the mutators (Add*, Set*) must not run
// concurrently with anything.
type Model struct {
	services  []service // declaration order
	svcIndex  map[string]int
	funcOrder []string
	functions map[string]*interaction.Diagram
	scenarios []UserScenario

	mu   sync.Mutex // guards prog
	prog *program   // compiled user layer; nil after a structural edit
}

// service is one declared service: a fixed availability, or an evaluator
// when eval is non-nil.
type service struct {
	name  string
	value float64
	eval  func() (float64, error)
}

// UserScenario is one user-level scenario class: a set of invoked functions
// and its activation probability π.
type UserScenario struct {
	// Name labels the scenario in reports (e.g. "St-Ho-Se-Ex").
	Name string
	// Functions invoked by the scenario.
	Functions []string
	// Probability is the scenario's activation probability.
	Probability float64
}

// New returns an empty model.
func New() *Model {
	return &Model{
		svcIndex:  make(map[string]int),
		functions: make(map[string]*interaction.Diagram),
	}
}

// validAvailability reports whether a lies in [0, 1].
func validAvailability(a float64) bool { return a >= 0 && a <= 1 }

// AddService declares a service with a fixed availability.
func (m *Model) AddService(name string, availability float64) error {
	if !validAvailability(availability) {
		return fmt.Errorf("%w: service %q availability %v", ErrModel, name, availability)
	}
	return m.declare(service{name: name, value: availability})
}

// AddServiceBlock declares a service whose availability is computed from a
// reliability block diagram over its resources (the paper's resource level).
func (m *Model) AddServiceBlock(name string, block rbd.Block) error {
	if block == nil {
		return fmt.Errorf("%w: service %q has nil block", ErrModel, name)
	}
	return m.AddServiceEval(name, func() (float64, error) { return rbd.Eval(block) })
}

// AddServiceEval declares a service backed by an arbitrary availability
// evaluator — typically a composite performance-availability model such as
// webfarm.Farm.Availability.
func (m *Model) AddServiceEval(name string, eval func() (float64, error)) error {
	if eval == nil {
		return fmt.Errorf("%w: service %q has nil evaluator", ErrModel, name)
	}
	return m.declare(service{name: name, eval: eval})
}

// declare registers a new service under a unique, non-empty name.
func (m *Model) declare(s service) error {
	if s.name == "" {
		return fmt.Errorf("%w: empty service name", ErrModel)
	}
	if _, ok := m.svcIndex[s.name]; ok {
		return fmt.Errorf("%w: service %q already declared", ErrModel, s.name)
	}
	m.svcIndex[s.name] = len(m.services)
	m.services = append(m.services, s)
	m.invalidate()
	return nil
}

// SetServiceAvailability refreshes a declared service to a fixed
// availability, replacing its value or evaluator. It is a refresh, not a
// structural edit: the compiled user layer is kept, so re-evaluating after
// a refresh costs only the arithmetic.
func (m *Model) SetServiceAvailability(name string, availability float64) error {
	i, ok := m.svcIndex[name]
	if !ok {
		return fmt.Errorf("%w: undeclared service %q", ErrModel, name)
	}
	if !validAvailability(availability) {
		return fmt.Errorf("%w: service %q availability %v", ErrModel, name, availability)
	}
	m.services[i].value, m.services[i].eval = availability, nil
	return nil
}

// invalidate drops the compiled program after a structural edit.
func (m *Model) invalidate() {
	m.mu.Lock()
	m.prog = nil
	m.mu.Unlock()
}

// AddFunction declares a function by its interaction diagram. Every service
// the diagram references must already be declared.
func (m *Model) AddFunction(d *interaction.Diagram) error {
	if d == nil {
		return fmt.Errorf("%w: nil diagram", ErrModel)
	}
	name := d.Name()
	if _, ok := m.functions[name]; ok {
		return fmt.Errorf("%w: function %q already declared", ErrModel, name)
	}
	if err := d.Validate(); err != nil {
		return fmt.Errorf("hierarchy: function %q: %w", name, err)
	}
	for _, svc := range d.Services() {
		if _, ok := m.svcIndex[svc]; !ok {
			return fmt.Errorf("%w: function %q references undeclared service %q", ErrModel, name, svc)
		}
	}
	m.functions[name] = d
	m.funcOrder = append(m.funcOrder, name)
	m.invalidate()
	return nil
}

// SetScenarios installs the user-level scenarios. Probabilities must sum to
// one and every referenced function must be declared.
func (m *Model) SetScenarios(scenarios []UserScenario) error {
	if len(scenarios) == 0 {
		return fmt.Errorf("%w: no scenarios", ErrModel)
	}
	var sum float64
	for _, sc := range scenarios {
		if sc.Probability < 0 || sc.Probability > 1 || math.IsNaN(sc.Probability) {
			return fmt.Errorf("%w: scenario %q probability %v", ErrModel, sc.Name, sc.Probability)
		}
		if len(sc.Functions) == 0 {
			return fmt.Errorf("%w: scenario %q invokes no functions", ErrModel, sc.Name)
		}
		for _, fn := range sc.Functions {
			if _, ok := m.functions[fn]; !ok {
				return fmt.Errorf("%w: scenario %q references undeclared function %q", ErrModel, sc.Name, fn)
			}
		}
		sum += sc.Probability
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("%w: scenario probabilities sum to %v", ErrModel, sum)
	}
	cp := make([]UserScenario, len(scenarios))
	copy(cp, scenarios)
	m.scenarios = cp
	m.invalidate()
	return nil
}

// SetProfile derives the user scenarios from an operational profile: each
// scenario class of the profile becomes a UserScenario named by its function
// set.
func (m *Model) SetProfile(p *opprofile.Profile) error {
	scenarios, err := p.Scenarios()
	if err != nil {
		return err
	}
	out := make([]UserScenario, 0, len(scenarios))
	for _, sc := range scenarios {
		out = append(out, UserScenario{
			Name:        sc.Key(),
			Functions:   sc.Functions,
			Probability: sc.Probability,
		})
	}
	return m.SetScenarios(out)
}

// ScenarioResult is the evaluated availability of one user scenario.
type ScenarioResult struct {
	Name         string
	Functions    []string
	Probability  float64
	Availability float64
}

// Report is the full multi-level evaluation result.
type Report struct {
	// Services maps each service to its availability.
	Services map[string]float64
	// Functions maps each function to its availability (Table 6).
	Functions map[string]float64
	// Scenarios lists per-scenario availabilities in input order.
	Scenarios []ScenarioResult
	// UserAvailability is Σ_i π_i·A(scenario i) (equation 10).
	UserAvailability float64
}

// UserUnavailability returns 1 − UserAvailability computed without
// cancellation: Σ_i π_i·(1 − A_i).
func (r *Report) UserUnavailability() float64 {
	var u float64
	for _, sc := range r.Scenarios {
		u += sc.Probability * (1 - sc.Availability)
	}
	return u
}

// UnavailabilityWhere returns the unavailability contribution
// Σ π_i·(1 − A_i) of the scenarios selected by keep — the quantity plotted
// per scenario category in Figure 13.
func (r *Report) UnavailabilityWhere(keep func(ScenarioResult) bool) float64 {
	var u float64
	for _, sc := range r.Scenarios {
		if keep(sc) {
			u += sc.Probability * (1 - sc.Availability)
		}
	}
	return u
}

// Workspace is the reusable scratch of one evaluation: the service
// availability vector the compiled program reads. A Workspace is not safe
// for concurrent use — give each sweep worker its own (see
// sweep.RunScratch) and reuse it across evaluations; results are
// bit-identical to workspace-free evaluation.
type Workspace struct {
	avail []float64
}

// NewWorkspace returns an empty evaluation workspace.
func NewWorkspace() *Workspace {
	return &Workspace{}
}

// ServiceNames returns the declared services in declaration order: the
// order of EvaluateVector's argument.
func (m *Model) ServiceNames() []string {
	names := make([]string, len(m.services))
	for i, s := range m.services {
		names[i] = s.name
	}
	return names
}

// Evaluate computes service, function, scenario and user availabilities.
func (m *Model) Evaluate() (*Report, error) {
	avail, err := m.resolve(nil, nil)
	if err != nil {
		return nil, err
	}
	return m.EvaluateVector(avail)
}

// EvaluateWorkspace is Evaluate with caller-owned scratch: a worker reusing
// one Workspace across many evaluations does not reallocate the service
// vector. A nil workspace is Evaluate.
func (m *Model) EvaluateWorkspace(ws *Workspace) (*Report, error) {
	if ws == nil {
		return m.Evaluate()
	}
	avail, err := m.resolve(ws.avail, nil)
	if err != nil {
		return nil, err
	}
	ws.avail = avail
	return m.EvaluateVector(avail)
}

// resolve writes every service's availability into dst[:0] in declaration
// order: the override when overrides names the service, else its
// evaluator's result or its fixed value. The model is never mutated.
func (m *Model) resolve(dst []float64, overrides map[string]float64) ([]float64, error) {
	if len(m.scenarios) == 0 {
		return nil, fmt.Errorf("%w: no user scenarios installed", ErrModel)
	}
	avail := dst[:0]
	if cap(avail) < len(m.services) {
		avail = make([]float64, 0, len(m.services))
	}
	for _, s := range m.services {
		a, ok := overrides[s.name]
		switch {
		case ok:
		case s.eval != nil:
			var err error
			if a, err = s.eval(); err != nil {
				return nil, fmt.Errorf("hierarchy: service %q: %w", s.name, err)
			}
		default:
			a = s.value
		}
		if !validAvailability(a) {
			return nil, fmt.Errorf("%w: service %q evaluated to %v", ErrModel, s.name, a)
		}
		avail = append(avail, a)
	}
	return avail, nil
}

// EvaluateVector evaluates the model with the given service availabilities,
// one per declared service in declaration order (ServiceNames); configured
// values and evaluators are not consulted. It is the evaluation core that
// Evaluate, EvaluateWorkspace and EvaluateWith resolve their vectors for.
// avail is only read, never retained, and the model is never mutated, so
// EvaluateVector may run concurrently with the other evaluations.
func (m *Model) EvaluateVector(avail []float64) (*Report, error) {
	if len(m.scenarios) == 0 {
		return nil, fmt.Errorf("%w: no user scenarios installed", ErrModel)
	}
	if len(avail) != len(m.services) {
		return nil, fmt.Errorf("%w: %d service availabilities for %d services", ErrModel, len(avail), len(m.services))
	}
	for i, a := range avail {
		if !validAvailability(a) {
			return nil, fmt.Errorf("%w: service %q availability %v", ErrModel, m.services[i].name, a)
		}
	}
	prog, err := m.program()
	if err != nil {
		return nil, err
	}

	report := &Report{
		Services:  make(map[string]float64, len(m.services)),
		Functions: make(map[string]float64, len(m.funcOrder)),
		Scenarios: make([]ScenarioResult, len(m.scenarios)),
	}
	for i, s := range m.services {
		report.Services[s.name] = avail[i]
	}
	for fi, terms := range prog.funcs {
		report.Functions[m.funcOrder[fi]] = functionAvailability(terms, avail)
	}
	var nFuncs int
	for _, sc := range m.scenarios {
		nFuncs += len(sc.Functions)
	}
	names := make([]string, 0, nFuncs)
	var user float64
	for si, sc := range m.scenarios {
		a := prog.scenarios[si].availability(avail)
		names = append(names, sc.Functions...)
		report.Scenarios[si] = ScenarioResult{
			Name:         sc.Name,
			Functions:    names[len(names)-len(sc.Functions) : len(names) : len(names)],
			Probability:  sc.Probability,
			Availability: a,
		}
		user += sc.Probability * a
	}
	report.UserAvailability = math.Min(1, math.Max(0, user))
	return report, nil
}

// program is the compiled user layer of one model structure. It is
// immutable once built, so concurrent evaluations share it.
type program struct {
	// sources holds the Scenarios() slice each function (funcOrder) was
	// compiled from; a diagram mutated since returns a fresh slice.
	sources   [][]interaction.Scenario
	funcs     [][]term       // each function's branches, in funcOrder
	scenarios []scenarioProg // in m.scenarios order
}

// term is one function branch: its probability and the indices of the
// services it requires, in name order.
type term struct {
	prob float64
	svcs []int
}

// scenarioProg is one scenario's factorised Shannon decomposition.
type scenarioProg struct {
	// essential services are required on every branch of some invoked
	// function.
	essential []int
	// free are the other services the scenario touches; bit b of an
	// enumerated state is the up/down state of free[b].
	free []int
	// reqs holds every invoked function's branches as (mask over free
	// bits, probability) pairs; ends[j] is the end offset of function j.
	reqs []svcReq
	ends []int
}

// svcReq is one function branch within a scenario: the free services it
// requires as a bit mask, and its probability.
type svcReq struct {
	mask int
	prob float64
}

// program returns the compiled user layer, recompiling it when a
// structural edit dropped it or a registered diagram was mutated since.
func (m *Model) program() (*program, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.prog != nil && m.prog.current(m) {
		return m.prog, nil
	}
	p, err := m.compile()
	if err != nil {
		return nil, err
	}
	m.prog = p
	return p, nil
}

// current reports whether every function diagram still returns the
// scenario slice the program was compiled from. The program holds those
// slices, so their addresses cannot be reused by a fresh analysis.
func (p *program) current(m *Model) bool {
	for fi, name := range m.funcOrder {
		scs, err := m.functions[name].Scenarios()
		if err != nil || len(scs) != len(p.sources[fi]) || (len(scs) > 0 && &scs[0] != &p.sources[fi][0]) {
			return false
		}
	}
	return true
}

// compile interns the services of every function branch and lowers each
// scenario to its factorised decomposition.
func (m *Model) compile() (*program, error) {
	p := &program{
		sources:   make([][]interaction.Scenario, len(m.funcOrder)),
		funcs:     make([][]term, len(m.funcOrder)),
		scenarios: make([]scenarioProg, len(m.scenarios)),
	}
	funcIndex := make(map[string]int, len(m.funcOrder))
	for fi, name := range m.funcOrder {
		scs, err := m.functions[name].Scenarios()
		if err != nil {
			return nil, fmt.Errorf("hierarchy: function %q: %w", name, err)
		}
		var n int
		for _, sc := range scs {
			n += len(sc.Services)
		}
		idx := make([]int, 0, n)
		terms := make([]term, len(scs))
		for k, sc := range scs {
			for _, svc := range sc.Services {
				i, ok := m.svcIndex[svc]
				if !ok {
					return nil, fmt.Errorf("%w: function %q references undeclared service %q", ErrModel, name, svc)
				}
				idx = append(idx, i)
			}
			terms[k] = term{prob: sc.Probability, svcs: idx[len(idx)-len(sc.Services) : len(idx) : len(idx)]}
		}
		p.sources[fi], p.funcs[fi] = scs, terms
		funcIndex[name] = fi
	}

	// Service indices in name order: the enumeration order of a scenario's
	// essential and free services.
	byName := make([]int, len(m.services))
	for i := range byName {
		byName[i] = i
	}
	sort.Slice(byName, func(a, b int) bool { return m.services[byName[a]].name < m.services[byName[b]].name })
	// Per-service scratch: the number of the current function's branches
	// requiring it, whether the scenario touches it or needs it up, and its
	// free bit.
	count := make([]int, len(m.services))
	touched := make([]bool, len(m.services))
	essential := make([]bool, len(m.services))
	bit := make([]int, len(m.services))
	for si, sc := range m.scenarios {
		clear(touched)
		clear(essential)
		var nTouched, nReqs int
		for _, fn := range sc.Functions {
			terms := p.funcs[funcIndex[fn]]
			nReqs += len(terms)
			clear(count)
			for _, t := range terms {
				for _, i := range t.svcs {
					if !touched[i] {
						touched[i] = true
						nTouched++
					}
					count[i]++
				}
			}
			for i, c := range count {
				if c > 0 && c == len(terms) {
					essential[i] = true
				}
			}
		}
		if nTouched > maxScenarioServices {
			return nil, fmt.Errorf("%w: scenario %q touches %d services, exceeding the decomposition limit %d", ErrModel, sc.Name, nTouched, maxScenarioServices)
		}
		sp := scenarioProg{
			essential: make([]int, 0, nTouched),
			free:      make([]int, 0, nTouched),
			reqs:      make([]svcReq, 0, nReqs),
			ends:      make([]int, 0, len(sc.Functions)),
		}
		for _, i := range byName {
			switch {
			case essential[i]:
				sp.essential = append(sp.essential, i)
			case touched[i]:
				bit[i] = len(sp.free)
				sp.free = append(sp.free, i)
			}
		}
		for _, fn := range sc.Functions {
			for _, t := range p.funcs[funcIndex[fn]] {
				mask := 0
				for _, i := range t.svcs {
					if !essential[i] {
						mask |= 1 << bit[i]
					}
				}
				sp.reqs = append(sp.reqs, svcReq{mask: mask, prob: t.prob})
			}
			sp.ends = append(sp.ends, len(sp.reqs))
		}
		p.scenarios[si] = sp
	}
	return p, nil
}

// functionAvailability is Σ_branches q·Π A(service), in the operation
// order of interaction.Diagram.Availability.
func functionAvailability(terms []term, avail []float64) float64 {
	var total float64
	for _, t := range terms {
		x := t.prob
		for _, i := range t.svcs {
			x *= avail[i]
		}
		total += x
	}
	return total
}

// availability computes P(every invoked function succeeds): the product of
// the essential services' availabilities times the sum, over the joint
// states of the free services, of the state's probability and the invoked
// functions' joint success given that state. Function branch choices are
// independent of each other and of the service states; service states are
// shared across functions.
//
//ta:hotpath
func (sp *scenarioProg) availability(avail []float64) float64 {
	prod := 1.0
	for _, i := range sp.essential {
		prod *= avail[i]
	}
	if prod == 0 {
		return 0
	}
	var total float64
	for up := 0; up < 1<<len(sp.free); up++ {
		weight := 1.0
		for b, i := range sp.free {
			if up&(1<<b) != 0 {
				weight *= avail[i]
			} else {
				weight *= 1 - avail[i]
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
		for _, end := range sp.ends {
			var succ float64
			for _, r := range sp.reqs[start:end] {
				if r.mask&^up == 0 { // required ⊆ up
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
	return prod * total
}
