// Package interaction models the per-function interaction diagrams of the
// paper (Figures 3–6): probabilistic graphs from Begin to End whose nodes are
// processing steps, each requiring a set of services (web, application,
// database, external reservation systems, ...). Branch probabilities q_ij
// select among execution scenarios; a step that fans out to several booking
// systems simultaneously (the AND operator of Figure 4) is simply a step
// requiring all of those services.
//
// The derived quantities are the *function scenarios*: each path class from
// Begin to End with its probability and the set of services it touches. The
// function's availability, given per-service availabilities, is
//
//	A(F) = Σ_s q(s) · Π_{service ∈ services(s)} A(service),
//
// which reproduces Table 6 of the paper (e.g. the Browse bracket
// q23 + A(AS)(q24·q45 + q24·q47·A(DS)) times A(WS)).
package interaction

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/dtmc"
)

// Reserved node names delimiting every diagram.
const (
	Begin = "Begin"
	End   = "End"
)

// maxServices bounds the service marks of the path-class expansion, whose
// reachable states are further capped by dtmc.MaxPathStates.
const maxServices = 16

// ErrDiagram is returned for structurally invalid diagrams.
var ErrDiagram = errors.New("interaction: invalid diagram")

// Diagram is an interaction diagram under construction or analysis. The
// scenario analysis is cached on the diagram: structural mutations (AddStep,
// AddTransition) invalidate the cache, and every availability query reuses
// the cached scenarios. Analysis methods are safe for concurrent use.
type Diagram struct {
	name      string
	steps     map[string][]string // step → services required
	trans     map[string]map[string]float64
	services  []string
	svcIndex  map[string]int
	nodeOrder []string

	mu        sync.Mutex
	scenarios []Scenario // cached Scenarios() result; nil after mutation
}

// New returns an empty diagram with the given function name.
func New(name string) *Diagram {
	return &Diagram{
		name:     name,
		steps:    make(map[string][]string),
		trans:    make(map[string]map[string]float64),
		svcIndex: make(map[string]int),
	}
}

// Name returns the function name the diagram describes.
func (d *Diagram) Name() string { return d.name }

// AddStep declares a processing step and the services it requires. A step may
// require no services (pure routing) or several (the AND fan-out of Figure 4).
// Begin and End cannot be steps.
func (d *Diagram) AddStep(step string, services ...string) error {
	if step == Begin || step == End {
		return fmt.Errorf("%w: %q is reserved", ErrDiagram, step)
	}
	if _, ok := d.steps[step]; ok {
		return fmt.Errorf("%w: step %q already declared", ErrDiagram, step)
	}
	cp := make([]string, len(services))
	copy(cp, services)
	d.steps[step] = cp
	d.nodeOrder = append(d.nodeOrder, step)
	d.invalidate()
	for _, s := range services {
		if _, ok := d.svcIndex[s]; !ok {
			if len(d.services) >= maxServices {
				return fmt.Errorf("%w: more than %d services", ErrDiagram, maxServices)
			}
			d.svcIndex[s] = len(d.services)
			d.services = append(d.services, s)
		}
	}
	return nil
}

// AddTransition adds a control-flow edge with probability q. Unlabeled
// transitions in the paper's figures have probability one.
func (d *Diagram) AddTransition(from, to string, q float64) error {
	if q <= 0 || q > 1 || math.IsNaN(q) {
		return fmt.Errorf("%w: probability %v for %s→%s", ErrDiagram, q, from, to)
	}
	if to == Begin {
		return fmt.Errorf("%w: %s cannot be a destination", ErrDiagram, Begin)
	}
	if from == End {
		return fmt.Errorf("%w: %s cannot be a source", ErrDiagram, End)
	}
	if from != Begin {
		if _, ok := d.steps[from]; !ok {
			return fmt.Errorf("%w: undeclared step %q", ErrDiagram, from)
		}
	}
	if to != End {
		if _, ok := d.steps[to]; !ok {
			return fmt.Errorf("%w: undeclared step %q", ErrDiagram, to)
		}
	}
	row := d.trans[from]
	if row == nil {
		row = make(map[string]float64)
		d.trans[from] = row
	}
	row[to] += q
	d.invalidate()
	if row[to] > 1+1e-9 {
		return fmt.Errorf("%w: accumulated probability %s→%s exceeds 1", ErrDiagram, from, to)
	}
	return nil
}

// invalidate drops the cached scenario analysis after a structural mutation.
func (d *Diagram) invalidate() {
	d.mu.Lock()
	d.scenarios = nil
	d.mu.Unlock()
}

// Services returns the distinct services referenced by the diagram, in
// declaration order.
func (d *Diagram) Services() []string {
	out := make([]string, len(d.services))
	copy(out, d.services)
	return out
}

// StepServices returns the services required by one step (a copy), with
// ok = false for unknown steps.
func (d *Diagram) StepServices(step string) (services []string, ok bool) {
	svcs, found := d.steps[step]
	if !found {
		return nil, false
	}
	return append([]string(nil), svcs...), true
}

// Successors returns the outgoing transitions of a node as a copy
// (simulation support).
func (d *Diagram) Successors(from string) map[string]float64 {
	row := d.trans[from]
	out := make(map[string]float64, len(row))
	for to, q := range row {
		out[to] = q
	}
	return out
}

// Validate checks that Begin has outgoing flow, every node's outgoing
// probabilities sum to one, and every declared step is connected.
func (d *Diagram) Validate() error {
	if len(d.trans[Begin]) == 0 {
		return fmt.Errorf("%w: no transitions out of %s", ErrDiagram, Begin)
	}
	if from, sum, ok := dtmc.UnnormalizedRow(d.trans); ok {
		return fmt.Errorf("%w: transitions out of %q sum to %v", ErrDiagram, from, sum)
	}
	for _, step := range d.nodeOrder {
		if len(d.trans[step]) == 0 {
			return fmt.Errorf("%w: step %q has no outgoing transition", ErrDiagram, step)
		}
	}
	return nil
}

// Scenario is one function-scenario class: the services touched by a path
// class from Begin to End, with its activation probability.
type Scenario struct {
	// Services touched, sorted alphabetically.
	Services []string
	// Probability of the path class.
	Probability float64
}

// Key returns a canonical identifier of the service set.
func (s Scenario) Key() string { return strings.Join(s.Services, "+") }

// Scenarios computes the function scenarios: path classes grouped by the set
// of services they touch, with exact probabilities (cycles collapse like in
// the operational profile). Results are sorted by descending probability.
//
// The analysis is cached on the diagram until the next structural mutation,
// so repeated availability queries pay for the path-class solve once.
// The returned slice is shared with the cache and must not be mutated.
func (d *Diagram) Scenarios() ([]Scenario, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.scenarios != nil {
		return d.scenarios, nil
	}
	scs, err := d.computeScenarios()
	if err != nil {
		return nil, err
	}
	d.scenarios = scs
	return scs, nil
}

// Graph returns the diagram as a path graph: Begin, the steps in declaration
// order, then End. A step marks the bits of its services (the i-th declared
// service is bit i), and every node's successors are listed in name order.
func (d *Diagram) Graph() dtmc.PathGraph {
	names := append(append([]string{Begin}, d.nodeOrder...), End)
	marks := make([]uint64, len(names))
	for i, name := range names {
		for _, svc := range d.steps[name] {
			marks[i] |= 1 << d.svcIndex[svc]
		}
	}
	return dtmc.NewPathGraph(names, marks, d.trans)
}

// computeScenarios groups the path classes of the diagram graph
// (dtmc.PathGraph.PathClasses) by the services they touch.
func (d *Diagram) computeScenarios() ([]Scenario, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	g := d.Graph()
	classes, err := g.PathClasses()
	if err != nil {
		return nil, fmt.Errorf("%w: scenario analysis of %q: %w", ErrDiagram, d.name, err)
	}
	out := make([]Scenario, 0, len(classes))
	for _, c := range classes {
		var svcs []string
		for i, svc := range d.services {
			if c.Marks&(1<<i) != 0 {
				svcs = append(svcs, svc)
			}
		}
		sort.Strings(svcs)
		out = append(out, Scenario{Services: svcs, Probability: c.Probability})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Probability != out[j].Probability {
			return out[i].Probability > out[j].Probability
		}
		return out[i].Key() < out[j].Key()
	})
	return out, nil
}

// Availability computes the function's availability given per-service
// availabilities: Σ_s q(s)·Π_{svc ∈ s} A(svc). Every service referenced by
// the diagram must be present in avail.
func (d *Diagram) Availability(avail map[string]float64) (float64, error) {
	scenarios, err := d.Scenarios()
	if err != nil {
		return 0, err
	}
	for _, svc := range d.services {
		a, ok := avail[svc]
		if !ok {
			return 0, fmt.Errorf("%w: no availability for service %q", ErrDiagram, svc)
		}
		if a < 0 || a > 1 || math.IsNaN(a) {
			return 0, fmt.Errorf("%w: availability %v for service %q", ErrDiagram, a, svc)
		}
	}
	var total float64
	for _, sc := range scenarios {
		term := sc.Probability
		for _, svc := range sc.Services {
			term *= avail[svc]
		}
		total += term
	}
	return total, nil
}

// SuccessGivenUp returns the conditional probability that one execution of
// the function succeeds given the exact set of operational services:
// Σ over scenarios whose service set is contained in up. Used by the
// user-level evaluation, which must condition on shared services.
func (d *Diagram) SuccessGivenUp(up map[string]bool) (float64, error) {
	scenarios, err := d.Scenarios()
	if err != nil {
		return 0, err
	}
	var p float64
scenarioLoop:
	for _, sc := range scenarios {
		for _, svc := range sc.Services {
			if !up[svc] {
				continue scenarioLoop
			}
		}
		p += sc.Probability
	}
	return p, nil
}
