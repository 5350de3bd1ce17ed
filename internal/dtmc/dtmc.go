// Package dtmc implements discrete-time Markov chains: construction with
// probability validation, stationary distributions of irreducible chains, and
// absorbing-chain analysis (fundamental matrix, expected visit counts, and
// absorption probabilities).
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

	"repro/internal/linalg"
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

// TransitionMatrix returns the row-stochastic matrix P.
func (c *Chain) TransitionMatrix() (*linalg.Matrix, error) {
	n := len(c.names)
	if n == 0 {
		return nil, errors.New("dtmc: chain has no states")
	}
	p := linalg.NewMatrix(n, n)
	for i, row := range c.prob {
		for j, v := range row {
			p.Set(i, j, v)
		}
	}
	return p, nil
}

// StepDistribution returns the state distribution after exactly n steps,
// starting from the given initial distribution. Absorbing states retain
// their probability.
func (c *Chain) StepDistribution(initial map[string]float64, steps int) (map[string]float64, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if steps < 0 {
		return nil, fmt.Errorf("dtmc: negative step count %d", steps)
	}
	cur := make([]float64, len(c.names))
	var total float64
	for name, p := range initial {
		i, err := c.StateIndex(name)
		if err != nil {
			return nil, err
		}
		if p < 0 {
			return nil, fmt.Errorf("dtmc: negative initial probability %v for %q", p, name)
		}
		cur[i] = p
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		return nil, fmt.Errorf("dtmc: initial distribution sums to %v, want 1", total)
	}
	for s := 0; s < steps; s++ {
		next := make([]float64, len(c.names))
		for i, pi := range cur {
			if pi == 0 {
				continue
			}
			if len(c.prob[i]) == 0 { // absorbing
				next[i] += pi
				continue
			}
			for j, p := range c.prob[i] {
				next[j] += pi * p
			}
		}
		cur = next
	}
	out := make(map[string]float64, len(c.names))
	for i, p := range cur {
		out[c.names[i]] = p
	}
	return out, nil
}

// StationaryDistribution computes π with πP = π, Σπ = 1 for an irreducible
// chain (every state reachable from every state and no absorbing states).
func (c *Chain) StationaryDistribution() (map[string]float64, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := len(c.names)
	if n == 0 {
		return nil, errors.New("dtmc: chain has no states")
	}
	for i := range c.prob {
		if len(c.prob[i]) == 0 {
			return nil, fmt.Errorf("dtmc: state %q is absorbing; no stationary distribution over all states", c.names[i])
		}
	}
	p, err := c.TransitionMatrix()
	if err != nil {
		return nil, err
	}
	// Solve (Pᵀ - I)π = 0 with last row replaced by Σπ = 1.
	a := p.Transpose()
	for i := 0; i < n; i++ {
		a.Add(i, i, -1)
	}
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	b := make([]float64, n)
	b[n-1] = 1
	pi, err := linalg.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("dtmc: stationary solve (chain irreducible?): %w", err)
	}
	out := make(map[string]float64, n)
	for i, v := range pi {
		if v < -1e-9 {
			return nil, fmt.Errorf("dtmc: negative stationary probability %v for %q (chain not irreducible?)", v, c.names[i])
		}
		out[c.names[i]] = math.Max(v, 0)
	}
	return out, nil
}
