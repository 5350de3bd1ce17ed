package gspn

import (
	"fmt"
	"sort"

	"repro/internal/ctmc"
)

// This file holds the generic reachability analysis: a fresh exploration
// that resolves vanishing markings recursively and builds the
// tangible-marking ctmc.Chain. Production code analyzes through Freeze;
// the tests and FuzzFrozenGSPN check the frozen graph against this
// reference.

// ToCTMC builds the tangible-marking CTMC without solving it. The returned
// map links CTMC state names to markings.
func (n *Net) ToCTMC(maxMarkings int) (*ctmc.Chain, map[string]Marking, error) {
	if maxMarkings < 1 {
		maxMarkings = 100000
	}
	if len(n.places) == 0 {
		return nil, nil, fmt.Errorf("%w: no places", ErrNet)
	}
	if len(n.transitions) == 0 {
		return nil, nil, fmt.Errorf("%w: no transitions", ErrNet)
	}

	initial := n.InitialMarking()
	// Resolve the initial marking to tangible ones (it may be vanishing).
	initialTangible, err := n.resolveVanishing(initial, 0)
	if err != nil {
		return nil, nil, err
	}

	chain := ctmc.New()
	tangible := make(map[string]Marking)
	var queue []Marking
	enqueue := func(m Marking) {
		key := m.Key(n.places)
		if _, seen := tangible[key]; !seen {
			tangible[key] = m
			chain.AddState(key)
			queue = append(queue, m)
		}
	}
	for _, tm := range initialTangible {
		enqueue(tm.marking)
	}

	for len(queue) > 0 {
		if len(tangible) > maxMarkings {
			return nil, nil, fmt.Errorf("%w: more than %d tangible markings", ErrAnalysis, maxMarkings)
		}
		m := queue[0]
		queue = queue[1:]
		key := m.Key(n.places)
		for _, t := range n.timedEnabled(m) {
			rate := t.rate(m)
			if rate <= 0 {
				return nil, nil, fmt.Errorf("%w: transition %q enabled with rate %v in marking %s", ErrAnalysis, t.name, rate, key)
			}
			next := t.fire(m)
			targets, err := n.resolveVanishing(next, 0)
			if err != nil {
				return nil, nil, err
			}
			for _, tm := range targets {
				enqueue(tm.marking)
				toKey := tm.marking.Key(n.places)
				if toKey == key {
					continue // self-loop through vanishing chain: no effect on CTMC
				}
				if err := chain.AddTransition(key, toKey, rate*tm.prob); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return chain, tangible, nil
}

// tangibleTarget is one tangible marking reached from a (possibly
// vanishing) marking, with the probability of reaching it through the
// immediate firings.
type tangibleTarget struct {
	marking Marking
	prob    float64
}

// resolveVanishing follows chains of immediate firings until tangible
// markings are reached, accumulating branch probabilities.
func (n *Net) resolveVanishing(m Marking, depth int) ([]tangibleTarget, error) {
	imm := n.immediateEnabled(m)
	if len(imm) == 0 {
		return []tangibleTarget{{marking: m, prob: 1}}, nil
	}
	if depth >= maxVanishingDepth {
		return nil, fmt.Errorf("%w: vanishing chain deeper than %d (immediate-transition loop?)", ErrAnalysis, maxVanishingDepth)
	}
	var totalWeight float64
	for _, t := range imm {
		totalWeight += t.weight
	}
	// Accumulate by key so duplicate targets merge.
	acc := make(map[string]tangibleTarget)
	for _, t := range imm {
		branch := t.weight / totalWeight
		sub, err := n.resolveVanishing(t.fire(m), depth+1)
		if err != nil {
			return nil, err
		}
		for _, tm := range sub {
			key := tm.marking.Key(n.places)
			cur := acc[key]
			cur.marking = tm.marking
			cur.prob += branch * tm.prob
			acc[key] = cur
		}
	}
	out := make([]tangibleTarget, 0, len(acc))
	keys := make([]string, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, acc[k])
	}
	return out, nil
}
