package ctmc

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// MeanTimeToAbsorption computes, for a chain in which the given states are
// absorbing targets, the expected time to reach any of them from each
// transient state. Transitions out of target states are ignored. The result
// maps transient state names to expected hitting times; target states map
// to zero.
func (c *Chain) MeanTimeToAbsorption(targets ...string) (map[string]float64, error) {
	n := len(c.names)
	if n == 0 {
		return nil, ErrEmpty
	}
	isTarget := make([]bool, n)
	for _, t := range targets {
		i, err := c.StateIndex(t)
		if err != nil {
			return nil, err
		}
		isTarget[i] = true
	}
	// Transient states.
	var trans []int
	pos := make([]int, n)
	for i := 0; i < n; i++ {
		pos[i] = -1
		if !isTarget[i] {
			pos[i] = len(trans)
			trans = append(trans, i)
		}
	}
	out := make(map[string]float64, n)
	for _, t := range targets {
		out[t] = 0
	}
	if len(trans) == 0 {
		return out, nil
	}
	// Solve  Q_TT · h = -1  restricted to transient states.
	m := len(trans)
	a := linalg.NewMatrix(m, m)
	b := make([]float64, m)
	for r, i := range trans {
		exit := c.ExitRate(i)
		if exit == 0 {
			return nil, fmt.Errorf("ctmc: transient state %q cannot reach any target", c.names[i])
		}
		a.Set(r, r, -exit)
		for j, rate := range c.rates[i] {
			if !isTarget[j] {
				a.Add(r, pos[j], rate)
			}
		}
		b[r] = -1
	}
	h, err := linalg.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("ctmc: hitting-time solve: %w", err)
	}
	for r, i := range trans {
		if h[r] < 0 || math.IsNaN(h[r]) {
			return nil, fmt.Errorf("ctmc: invalid hitting time %v for state %q (target set unreachable?)", h[r], c.names[i])
		}
		out[c.names[i]] = h[r]
	}
	return out, nil
}
