// Package opprofile models user operational profiles: probabilistic graphs
// describing how users traverse an application's functions from the moment
// they arrive (Start) until they leave (Exit), as in Figure 2 of the paper.
//
// The central derived quantity is the set of *user scenarios* (Table 1): the
// paper groups the infinitely many possible paths into finitely many classes
// by the set of functions each path invokes, collapsing cycles such as
// {Home-Browse}* and {Search-Book}*. A scenario's probability is the
// probability that a visit invokes exactly that set of functions, and is
// computed here exactly as a path class of the profile graph
// (dtmc.PathGraph.PathClasses).
//
// The package also supports the inverse problem: the paper's Table 1 was
// derived from measured transition probabilities that are not printed, so
// Fit recovers transition probabilities that best reproduce published
// scenario probabilities.
package opprofile

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/dtmc"
)

// Reserved node names: every profile starts at Start and ends at Exit.
const (
	Start = "Start"
	Exit  = "Exit"
)

// maxFunctions bounds the function marks of the path-class expansion, whose
// reachable states are further capped by dtmc.MaxPathStates.
const maxFunctions = 16

// ErrProfile is returned for structurally invalid profiles.
var ErrProfile = errors.New("opprofile: invalid profile")

// Profile is a user operational profile under construction or analysis.
type Profile struct {
	transitions map[string]map[string]float64
	functions   []string // discovery order, excluding Start/Exit
	funcIndex   map[string]int
}

// New returns an empty profile.
func New() *Profile {
	return &Profile{
		transitions: make(map[string]map[string]float64),
		funcIndex:   make(map[string]int),
	}
}

// AddTransition declares that users move from → to with the given
// probability. Start cannot be a destination and Exit cannot be a source.
func (p *Profile) AddTransition(from, to string, prob float64) error {
	if prob <= 0 || prob > 1 || math.IsNaN(prob) {
		return fmt.Errorf("%w: probability %v for %s→%s", ErrProfile, prob, from, to)
	}
	if to == Start {
		return fmt.Errorf("%w: %s cannot be a destination", ErrProfile, Start)
	}
	if from == Exit {
		return fmt.Errorf("%w: %s cannot be a source", ErrProfile, Exit)
	}
	p.registerNode(from)
	p.registerNode(to)
	row := p.transitions[from]
	if row == nil {
		row = make(map[string]float64)
		p.transitions[from] = row
	}
	row[to] += prob
	if row[to] > 1+1e-9 {
		return fmt.Errorf("%w: accumulated probability %s→%s exceeds 1", ErrProfile, from, to)
	}
	return nil
}

func (p *Profile) registerNode(name string) {
	if name == Start || name == Exit {
		return
	}
	if _, ok := p.funcIndex[name]; !ok {
		p.funcIndex[name] = len(p.functions)
		p.functions = append(p.functions, name)
	}
}

// Functions returns the function nodes in discovery order.
func (p *Profile) Functions() []string {
	out := make([]string, len(p.functions))
	copy(out, p.functions)
	return out
}

// TransitionProbability returns the probability of moving from → to
// (zero if the transition does not exist).
func (p *Profile) TransitionProbability(from, to string) float64 {
	return p.transitions[from][to]
}

// Validate checks structural sanity: Start exists with outgoing
// probabilities summing to one, the same for every function node, and the
// function count is within the expansion limit.
func (p *Profile) Validate() error {
	if len(p.transitions[Start]) == 0 {
		return fmt.Errorf("%w: no transitions out of %s", ErrProfile, Start)
	}
	if len(p.functions) > maxFunctions {
		return fmt.Errorf("%w: %d functions exceed limit %d", ErrProfile, len(p.functions), maxFunctions)
	}
	if from, sum, ok := dtmc.UnnormalizedRow(p.transitions); ok {
		return fmt.Errorf("%w: transitions out of %q sum to %v", ErrProfile, from, sum)
	}
	return nil
}

// Scenario is one user-scenario class: the set of functions a visit invokes
// (cycles collapsed), with its probability of occurring.
type Scenario struct {
	// Functions invoked during the visit, sorted alphabetically.
	Functions []string
	// Probability that a visit invokes exactly this set of functions.
	Probability float64
}

// Key returns a canonical string identifying the scenario's function set.
func (s Scenario) Key() string { return strings.Join(s.Functions, "+") }

// ScenarioKey builds the canonical key for a set of function names.
func ScenarioKey(functions []string) string {
	cp := make([]string, len(functions))
	copy(cp, functions)
	sort.Strings(cp)
	return strings.Join(cp, "+")
}

// Invokes reports whether the scenario invokes the named function.
func (s Scenario) Invokes(fn string) bool {
	for _, f := range s.Functions {
		if f == fn {
			return true
		}
	}
	return false
}

// Graph returns the profile as a path graph: Start, the functions in name
// order, then Exit. The i-th function in name order marks bit i, and every
// node's successors are listed in name order.
func (p *Profile) Graph() dtmc.PathGraph {
	names := append([]string{Start}, p.functions...)
	sort.Strings(names[1:])
	names = append(names, Exit)
	marks := make([]uint64, len(names))
	for i := 1; i < len(names)-1; i++ {
		marks[i] = 1 << (i - 1)
	}
	return dtmc.NewPathGraph(names, marks, p.transitions)
}

// Scenarios computes the probability of every scenario class with nonzero
// probability, sorted by descending probability (ties broken by key): the
// path classes of the profile graph (dtmc.PathGraph.PathClasses), grouped by
// the set of functions each path invokes.
func (p *Profile) Scenarios() ([]Scenario, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := p.Graph()
	classes, err := g.PathClasses()
	if err != nil {
		return nil, fmt.Errorf("%w: scenario analysis: %w", ErrProfile, err)
	}
	functions := g.Names[1:g.End]
	out := make([]Scenario, 0, len(classes))
	for _, c := range classes {
		var fns []string
		for i, fn := range functions {
			if c.Marks&(1<<i) != 0 {
				fns = append(fns, fn)
			}
		}
		out = append(out, Scenario{Functions: fns, Probability: c.Probability})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Probability != out[j].Probability {
			return out[i].Probability > out[j].Probability
		}
		return out[i].Key() < out[j].Key()
	})
	return out, nil
}

// ExpectedInvocations returns the expected number of times each function is
// invoked during one visit, computed from the fundamental matrix of the
// profile's absorbing chain, whose states are declared in Graph order.
// Unlike scenario probabilities, this counts repetitions: a {Home-Browse}*
// cycle contributes every bounce.
//
// The result links the user level to the performance model: with V visits
// arriving per second, function f receives V·E[invocations of f] requests
// per second — the α that drives the web farm's M/M/i/K model.
func (p *Profile) ExpectedInvocations() (map[string]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := p.Graph()
	chain := dtmc.New()
	for _, name := range g.Names {
		chain.AddState(name)
	}
	for from, arcs := range g.Succ {
		for _, a := range arcs {
			if err := chain.AddTransition(g.Names[from], g.Names[a.To], a.P); err != nil {
				return nil, err
			}
		}
	}
	analysis, err := chain.AnalyzeAbsorbing()
	if err != nil {
		return nil, fmt.Errorf("opprofile: invocation analysis: %w", err)
	}
	visits, err := analysis.ExpectedVisits(Start)
	if err != nil {
		return nil, fmt.Errorf("opprofile: invocation analysis: %w", err)
	}
	out := make(map[string]float64, len(p.functions))
	for _, fn := range p.functions {
		out[fn] = visits[fn]
	}
	return out, nil
}

// FunctionInvocationProbability returns, for each function, the probability
// that a visit invokes it at least once (the per-function marginal of the
// scenario distribution).
func (p *Profile) FunctionInvocationProbability() (map[string]float64, error) {
	scenarios, err := p.Scenarios()
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(p.functions))
	for _, fn := range p.functions {
		out[fn] = 0
	}
	for _, sc := range scenarios {
		for _, fn := range sc.Functions {
			out[fn] += sc.Probability
		}
	}
	return out, nil
}
