package dtmc

import (
	"errors"
	"fmt"

	"repro/internal/linalg"
)

// This file holds the generic absorbing-chain solver over the map-based
// Chain: one LU factorization and t unit-vector solves for the fundamental
// matrix and one dense N·R product. Production code solves through Compile; the tests and
// FuzzCompiledDTMC check the compiled kernel against this reference bit for
// bit.

// AbsorbingAnalysis holds the results of standard absorbing-chain analysis in
// canonical form: the chain is partitioned into transient states T and
// absorbing states A, and the fundamental matrix N = (I − Q)⁻¹ is computed,
// where Q is the transient-to-transient block of the transition matrix.
type AbsorbingAnalysis struct {
	chain       *Chain
	transient   []int // chain indices of transient states
	absorbing   []int // chain indices of absorbing states
	posT        map[int]int
	posA        map[int]int
	fundamental *linalg.Matrix // N
	absorbProb  *linalg.Matrix // B = N·R, |T|×|A|
}

// AnalyzeAbsorbing validates the chain and performs absorbing-chain analysis.
// The chain must contain at least one absorbing state, and every transient
// state must be able to reach an absorbing state.
func (c *Chain) AnalyzeAbsorbing() (*AbsorbingAnalysis, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := len(c.names)
	if n == 0 {
		return nil, errors.New("dtmc: chain has no states")
	}
	a := &AbsorbingAnalysis{
		chain: c,
		posT:  make(map[int]int),
		posA:  make(map[int]int),
	}
	for i := 0; i < n; i++ {
		if len(c.prob[i]) == 0 {
			a.posA[i] = len(a.absorbing)
			a.absorbing = append(a.absorbing, i)
		} else {
			a.posT[i] = len(a.transient)
			a.transient = append(a.transient, i)
		}
	}
	if len(a.absorbing) == 0 {
		return nil, errors.New("dtmc: chain has no absorbing states")
	}
	t := len(a.transient)
	if t == 0 {
		return a, nil
	}
	// I - Q over the transient block.
	iq := linalg.NewMatrix(t, t)
	for r := 0; r < t; r++ {
		iq.Set(r, r, 1)
	}
	for r, i := range a.transient {
		for j, p := range c.prob[i] {
			if col, ok := a.posT[j]; ok {
				iq.Add(r, col, -p)
			}
		}
	}
	// N = (I−Q)⁻¹ column by column: one factorization, one unit-vector
	// solve per column.
	lu, err := linalg.Factor(iq)
	if err != nil {
		return nil, fmt.Errorf("dtmc: fundamental matrix (some transient state cannot reach absorption): %w", err)
	}
	fund := linalg.NewMatrix(t, t)
	e := make([]float64, t)
	for j := 0; j < t; j++ {
		clear(e)
		e[j] = 1
		col, err := lu.Solve(e)
		if err != nil {
			return nil, fmt.Errorf("dtmc: fundamental matrix (some transient state cannot reach absorption): %w", err)
		}
		for i, v := range col {
			fund.Set(i, j, v)
		}
	}
	// Sanity: expected visit counts must be non-negative.
	for r := 0; r < t; r++ {
		for cIdx := 0; cIdx < t; cIdx++ {
			if fund.At(r, cIdx) < -1e-9 {
				return nil, fmt.Errorf("dtmc: fundamental matrix has negative entry %v; transient class %q cannot reach absorption", fund.At(r, cIdx), c.names[a.transient[r]])
			}
		}
	}
	a.fundamental = fund

	// R: transient → absorbing block; B = N·R.
	r := linalg.NewMatrix(t, len(a.absorbing))
	for row, i := range a.transient {
		for j, p := range c.prob[i] {
			if col, ok := a.posA[j]; ok {
				r.Set(row, col, p)
			}
		}
	}
	b := linalg.NewMatrix(t, len(a.absorbing))
	for i := 0; i < t; i++ {
		for k := 0; k < t; k++ {
			nik := fund.At(i, k)
			if nik == 0 {
				continue
			}
			for j := 0; j < len(a.absorbing); j++ {
				b.Add(i, j, nik*r.At(k, j))
			}
		}
	}
	a.absorbProb = b
	return a, nil
}

// TransientStates returns the names of the transient states.
func (a *AbsorbingAnalysis) TransientStates() []string {
	out := make([]string, len(a.transient))
	for k, i := range a.transient {
		out[k] = a.chain.names[i]
	}
	return out
}

// AbsorbingStates returns the names of the absorbing states.
func (a *AbsorbingAnalysis) AbsorbingStates() []string {
	out := make([]string, len(a.absorbing))
	for k, i := range a.absorbing {
		out[k] = a.chain.names[i]
	}
	return out
}

// ExpectedVisits returns the expected number of visits to each transient
// state before absorption, starting from the given transient state
// (the corresponding row of the fundamental matrix N).
func (a *AbsorbingAnalysis) ExpectedVisits(start string) (map[string]float64, error) {
	i, err := a.chain.StateIndex(start)
	if err != nil {
		return nil, err
	}
	row, ok := a.posT[i]
	if !ok {
		return nil, fmt.Errorf("dtmc: state %q is absorbing, not transient", start)
	}
	out := make(map[string]float64, len(a.transient))
	for col, j := range a.transient {
		out[a.chain.names[j]] = a.fundamental.At(row, col)
	}
	return out, nil
}

// ExpectedStepsToAbsorption returns the expected number of steps before
// absorption when starting from the given transient state (the row sum of N).
func (a *AbsorbingAnalysis) ExpectedStepsToAbsorption(start string) (float64, error) {
	visits, err := a.ExpectedVisits(start)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, v := range visits {
		s += v
	}
	return s, nil
}

// AbsorptionProbabilities returns, for the given starting transient state,
// the probability of ending in each absorbing state (the corresponding row
// of B = N·R).
func (a *AbsorbingAnalysis) AbsorptionProbabilities(start string) (map[string]float64, error) {
	i, err := a.chain.StateIndex(start)
	if err != nil {
		return nil, err
	}
	if col, ok := a.posA[i]; ok {
		// Starting absorbed: probability one of staying put.
		out := make(map[string]float64, len(a.absorbing))
		for k, j := range a.absorbing {
			if k == col {
				out[a.chain.names[j]] = 1
			} else {
				out[a.chain.names[j]] = 0
			}
		}
		return out, nil
	}
	row, ok := a.posT[i]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownState, start)
	}
	out := make(map[string]float64, len(a.absorbing))
	for col, j := range a.absorbing {
		out[a.chain.names[j]] = a.absorbProb.At(row, col)
	}
	return out, nil
}
