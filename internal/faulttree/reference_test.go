package faulttree

import "fmt"

// This file holds the recursive top-event evaluator. Production code
// evaluates through Compile's post-order program; the tests and
// FuzzCompiledFaultTree check that program against this reference bit for
// bit.

// eval computes n's failure probability assuming basic events are
// independent AND each appears at most once below n.
func eval(n Node) float64 {
	e, ok := n.(*BasicEvent)
	if ok {
		return e.prob
	}
	g := n.(*gate)
	switch g.kind {
	case gateAND:
		p := 1.0
		for _, c := range g.children {
			p *= eval(c)
		}
		return p
	case gateOR:
		q := 1.0
		for _, c := range g.children {
			q *= 1 - eval(c)
		}
		return 1 - q
	default: // k-of-n via DP on the number of failed children
		n := len(g.children)
		dp := make([]float64, n+1)
		dp[0] = 1
		for i, c := range g.children {
			p := eval(c)
			for j := i + 1; j >= 1; j-- {
				dp[j] = dp[j]*(1-p) + dp[j-1]*p
			}
			dp[0] *= 1 - p
		}
		var s float64
		for j := g.k; j <= n; j++ {
			s += dp[j]
		}
		return s
	}
}

// TopEventProbability evaluates the probability of the tree's top event.
// Basic events appearing multiple times in the tree (shared failure causes)
// are handled exactly by Shannon decomposition; the cost is O(2^d) in the
// number d of repeated events, capped at 20.
func TopEventProbability(root Node) (float64, error) {
	all := root.events(nil)
	count := make(map[*BasicEvent]int, len(all))
	for _, e := range all {
		count[e]++
	}
	var shared []*BasicEvent
	for _, e := range all {
		if count[e] > 1 {
			shared = append(shared, e)
			count[e] = 0
		}
	}
	const maxShared = 20
	if len(shared) > maxShared {
		return 0, fmt.Errorf("faulttree: %d repeated events exceed factoring limit %d", len(shared), maxShared)
	}
	if len(shared) == 0 {
		return eval(root), nil
	}
	orig := make([]float64, len(shared))
	for i, e := range shared {
		orig[i] = e.prob
	}
	defer func() {
		for i, e := range shared {
			e.prob = orig[i]
		}
	}()
	var total float64
	for mask := 0; mask < 1<<len(shared); mask++ {
		w := 1.0
		for i, e := range shared {
			if mask&(1<<i) != 0 {
				e.prob = 1
				w *= orig[i]
			} else {
				e.prob = 0
				w *= 1 - orig[i]
			}
		}
		if w == 0 {
			continue
		}
		total += w * eval(root)
	}
	return total, nil
}
