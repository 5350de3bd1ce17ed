// Package ctmc implements continuous-time Markov chains: model construction,
// steady-state solution (via the numerically stable GTH elimination),
// transient solution and expected state occupancy via uniformization, and
// mean time to absorption.
//
// Chain builds, inspects and serialises a chain: states are named and
// transitions added with positive rates. Compile freezes it into the
// solver-ready form whose kernels run every solve. The generic map-based
// solvers live on only in the package's tests, as the references the compiled
// kernels are checked against. The package backs the availability models of
// the travel-agency study: the closed-form repair models in package
// repairmodel are cross-validated against it.
package ctmc

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrUnknownState is returned when a state name has not been declared.
var ErrUnknownState = errors.New("ctmc: unknown state")

// ErrBadRate is returned for non-positive or non-finite transition rates.
var ErrBadRate = errors.New("ctmc: transition rate must be positive and finite")

// ErrEmpty is returned when an operation requires a non-empty chain.
var ErrEmpty = errors.New("ctmc: chain has no states")

// ErrNotIrreducible is returned by steady-state solvers when the chain is
// reducible (some states unreachable or absorbing subsets present) and no
// unique stationary distribution over all states exists.
var ErrNotIrreducible = errors.New("ctmc: chain is not irreducible")

// Chain is a continuous-time Markov chain under construction or analysis.
// The zero value is not usable; create chains with New.
type Chain struct {
	names []string
	index map[string]int
	rates []map[int]float64 // rates[i][j] = rate from i to j
}

// New returns an empty chain.
func New() *Chain {
	return &Chain{index: make(map[string]int)}
}

// AddState declares a state and returns its index. Declaring an existing
// state is idempotent and returns the original index.
func (c *Chain) AddState(name string) int {
	if i, ok := c.index[name]; ok {
		return i
	}
	i := len(c.names)
	c.names = append(c.names, name)
	c.index[name] = i
	c.rates = append(c.rates, make(map[int]float64))
	return i
}

// AddTransition adds a transition from state `from` to state `to` with the
// given rate. Both states are declared implicitly if needed. Adding a
// transition between the same pair accumulates rates (parallel transitions).
// Self-loops are rejected: they are meaningless in a CTMC generator.
func (c *Chain) AddTransition(from, to string, rate float64) error {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("%w: %q -> %q rate %v", ErrBadRate, from, to, rate)
	}
	if from == to {
		return fmt.Errorf("ctmc: self-loop on state %q", from)
	}
	i := c.AddState(from)
	j := c.AddState(to)
	c.rates[i][j] += rate
	return nil
}

// NumStates returns the number of declared states.
func (c *Chain) NumStates() int { return len(c.names) }

// StateNames returns the state names in declaration order (a copy).
func (c *Chain) StateNames() []string {
	out := make([]string, len(c.names))
	copy(out, c.names)
	return out
}

// StateIndex returns the index of the named state.
func (c *Chain) StateIndex(name string) (int, error) {
	i, ok := c.index[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownState, name)
	}
	return i, nil
}

// Rate returns the transition rate from state `from` to state `to`
// (zero if no transition exists).
func (c *Chain) Rate(from, to string) (float64, error) {
	i, err := c.StateIndex(from)
	if err != nil {
		return 0, err
	}
	j, err := c.StateIndex(to)
	if err != nil {
		return 0, err
	}
	return c.rates[i][j], nil
}

// successors returns the sorted successor indices of state i.
func (c *Chain) successors(i int) []int {
	out := make([]int, 0, len(c.rates[i]))
	for j := range c.rates[i] {
		out = append(out, j)
	}
	sort.Ints(out)
	return out
}

// Distribution maps state names to probabilities.
type Distribution map[string]float64

// Probability returns the probability of the named state (zero if absent).
func (d Distribution) Probability(name string) float64 { return d[name] }

// SumOver returns the total probability of the states selected by keep,
// summed in state-name order so the result does not depend on map order.
func (d Distribution) SumOver(keep func(name string) bool) float64 {
	var s float64
	for _, name := range d.sortedNames() {
		if keep(name) {
			s += d[name]
		}
	}
	return s
}

// ExpectedReward returns Σ_s π(s)·reward(s), summed in state-name order.
func (d Distribution) ExpectedReward(reward func(name string) float64) float64 {
	var s float64
	for _, name := range d.sortedNames() {
		s += d[name] * reward(name)
	}
	return s
}

// sortedNames returns the distribution's state names in sorted order.
func (d Distribution) sortedNames() []string {
	names := make([]string, 0, len(d))
	for name := range d {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
