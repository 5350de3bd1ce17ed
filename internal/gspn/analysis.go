package gspn

import (
	"fmt"

	"repro/internal/ctmc"
)

// Analysis holds the results of reachability + steady-state analysis over
// the tangible markings of a net.
type Analysis struct {
	frozen *Frozen
	pi     []float64 // steady-state probabilities in frozen.keys order
}

// maxVanishingDepth bounds chains of immediate firings from one marking; a
// deeper chain almost certainly indicates a vanishing loop (immediate
// transitions re-enabling each other), which has no sensible semantics.
const maxVanishingDepth = 64

// Analyze builds the reachability graph from the initial marking (up to
// maxMarkings tangible markings), eliminates vanishing markings, solves the
// resulting CTMC for steady state, and returns the analysis.
//
// The reachability graph is cached on the net (see Freeze): after the first
// call, rate-only perturbations (SetTimedRate, SetTimedRateFunc,
// SetImmediateWeight) re-solve the embedded compiled CTMC without
// re-exploring state space.
func (n *Net) Analyze(maxMarkings int) (*Analysis, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	f, err := n.freezeLocked(maxMarkings)
	if err != nil {
		return nil, err
	}
	return f.solveLocked()
}

// timedEnabled returns the timed transitions enabled in m, in declaration
// order. Immediate transitions have priority: if any is enabled the marking
// is vanishing and no timed transition may fire.
func (n *Net) timedEnabled(m Marking) []*transition {
	var out []*transition
	for _, t := range n.transitions {
		if !t.immediate && t.enabled(m) {
			out = append(out, t)
		}
	}
	return out
}

func (n *Net) immediateEnabled(m Marking) []*transition {
	var out []*transition
	for _, t := range n.transitions {
		if t.immediate && t.enabled(m) {
			out = append(out, t)
		}
	}
	return out
}

// NumMarkings returns the number of tangible markings explored.
func (a *Analysis) NumMarkings() int { return len(a.pi) }

// Chain returns the underlying compiled tangible-marking CTMC, whose states
// are the marking keys.
func (a *Analysis) Chain() *ctmc.Compiled { return a.frozen.cc }

// StateProbability returns the steady-state probability of one tangible
// marking, addressed by CTMC state key.
func (a *Analysis) StateProbability(key string) float64 {
	if i, ok := a.frozen.stateOf[key]; ok {
		return a.pi[i]
	}
	return 0
}

// TokenProbability returns P(place holds exactly k tokens) at steady state.
func (a *Analysis) TokenProbability(place string, k int) (float64, error) {
	if _, ok := a.frozen.net.placeSet[place]; !ok {
		return 0, fmt.Errorf("%w: unknown place %q", ErrNet, place)
	}
	return a.Probability(func(m Marking) bool { return m[place] == k }), nil
}

// ProbAtLeast returns P(place holds ≥ k tokens) at steady state.
func (a *Analysis) ProbAtLeast(place string, k int) (float64, error) {
	if _, ok := a.frozen.net.placeSet[place]; !ok {
		return 0, fmt.Errorf("%w: unknown place %q", ErrNet, place)
	}
	return a.Probability(func(m Marking) bool { return m[place] >= k }), nil
}

// ExpectedTokens returns E[tokens in place] at steady state, summed over the
// tangible markings in exploration order.
func (a *Analysis) ExpectedTokens(place string) (float64, error) {
	if _, ok := a.frozen.net.placeSet[place]; !ok {
		return 0, fmt.Errorf("%w: unknown place %q", ErrNet, place)
	}
	var e float64
	for i, m := range a.frozen.marks {
		e += float64(m[place]) * a.pi[i]
	}
	return e, nil
}

// Probability returns the steady-state probability of the markings selected
// by keep, summed over the tangible markings in exploration order so that
// repeated solves give the same bits.
func (a *Analysis) Probability(keep func(Marking) bool) float64 {
	var p float64
	for i, m := range a.frozen.marks {
		if keep(m) {
			p += a.pi[i]
		}
	}
	return p
}
