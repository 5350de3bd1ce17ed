// Package dtmc implements discrete-time Markov chains: construction with
// probability validation and absorbing-chain analysis (fundamental matrix,
// expected visit counts, and absorption probabilities).
//
// Chain builds a chain by name; Compile freezes it into the solver-ready
// form, and every absorbing analysis runs on that compiled kernel. The
// generic map-based absorbing solver lives on only in the package's tests,
// as the reference the compiled kernel is checked against bit for bit.
//
// The travel-agency study uses absorbing DTMCs twice: the user operational
// profile (Start → functions → Exit, Figure 2 of the paper) and the
// per-function interaction diagrams (Begin → servers → End, Figures 3–6).
package dtmc

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnknownState is returned when a state name has not been declared.
var ErrUnknownState = errors.New("dtmc: unknown state")

// ErrBadProbability is returned for probabilities outside (0, 1].
var ErrBadProbability = errors.New("dtmc: transition probability must be in (0, 1]")

// ErrNotStochastic is returned when a non-absorbing state's outgoing
// probabilities do not sum to one.
var ErrNotStochastic = errors.New("dtmc: outgoing probabilities do not sum to 1")

// probTolerance is the allowed deviation of a row sum from one.
const probTolerance = 1e-9

// Chain is a discrete-time Markov chain. States with no outgoing transitions
// are absorbing. Create chains with New.
type Chain struct {
	names []string
	index map[string]int
	prob  []map[int]float64
}

// New returns an empty chain.
func New() *Chain {
	return &Chain{index: make(map[string]int)}
}

// AddState declares a state and returns its index; redeclaring is idempotent.
func (c *Chain) AddState(name string) int {
	if i, ok := c.index[name]; ok {
		return i
	}
	i := len(c.names)
	c.names = append(c.names, name)
	c.index[name] = i
	c.prob = append(c.prob, make(map[int]float64))
	return i
}

// AddTransition adds a transition with the given probability. Probabilities
// for the same (from, to) pair accumulate. Self-loops are allowed (they model
// repeated attempts) except on absorbing states.
func (c *Chain) AddTransition(from, to string, p float64) error {
	if p <= 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("%w: %q -> %q probability %v", ErrBadProbability, from, to, p)
	}
	i := c.AddState(from)
	j := c.AddState(to)
	c.prob[i][j] += p
	if c.prob[i][j] > 1+probTolerance {
		return fmt.Errorf("dtmc: accumulated probability %q -> %q exceeds 1", from, to)
	}
	return nil
}

// StateIndex returns the index of the named state.
func (c *Chain) StateIndex(name string) (int, error) {
	i, ok := c.index[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownState, name)
	}
	return i, nil
}

// Probability returns the one-step transition probability from → to.
func (c *Chain) Probability(from, to string) (float64, error) {
	i, err := c.StateIndex(from)
	if err != nil {
		return 0, err
	}
	j, err := c.StateIndex(to)
	if err != nil {
		return 0, err
	}
	return c.prob[i][j], nil
}

// IsAbsorbing reports whether the named state has no outgoing transitions.
func (c *Chain) IsAbsorbing(name string) (bool, error) {
	i, err := c.StateIndex(name)
	if err != nil {
		return false, err
	}
	return len(c.prob[i]) == 0, nil
}

// Validate checks that every non-absorbing state's outgoing probabilities sum
// to one (within tolerance).
func (c *Chain) Validate() error {
	for i, row := range c.prob {
		if len(row) == 0 {
			continue // absorbing
		}
		var s float64
		for _, p := range row {
			s += p
		}
		if math.Abs(s-1) > probTolerance {
			return fmt.Errorf("%w: state %q sums to %v", ErrNotStochastic, c.names[i], s)
		}
	}
	return nil
}
