package faulttree

import (
	"fmt"
	"sync/atomic"
)

// kernelCounters aggregates compiled-tree activity across the process,
// mirroring the ctmc/dtmc/gspn kernel counters. Exported through
// ReadKernelStats, which obs.RegisterKernels publishes as kernel_faulttree_*.
var kernelCounters struct {
	compiles      atomic.Int64
	evals         atomic.Int64
	cutSetQueries atomic.Int64
}

// KernelStats is a snapshot of the process-wide compiled-fault-tree counters.
type KernelStats struct {
	// Compiles counts Compile calls; Evals counts compiled top-event
	// evaluations; CutSetQueries counts MinimalCutSets queries served from
	// the per-structure cache.
	Compiles      int64
	Evals         int64
	CutSetQueries int64
}

// ReadKernelStats returns the current process-wide kernel counters.
func ReadKernelStats() KernelStats {
	return KernelStats{
		Compiles:      kernelCounters.compiles.Load(),
		Evals:         kernelCounters.evals.Load(),
		CutSetQueries: kernelCounters.cutSetQueries.Load(),
	}
}

// cnode is one instruction of a compiled tree's post-order evaluation
// program: a basic-event load (kind 0) or a gate combining the top nchild
// values of the evaluation stack.
type cnode struct {
	kind   gateKind // 0 = basic event
	k      int      // k-of-n threshold
	nchild int
	event  *BasicEvent
	dp     []float64 // k-of-n scratch, len nchild+1
}

// Compiled is a fault tree frozen for repeated evaluation: the event list,
// shared-event factoring set, minimal cut sets, and a flattened post-order
// evaluation program are computed once per structure, so TopEventProbability
// becomes an allocation-free stack-machine pass that is bit-identical to the
// recursive reference evaluator in the package's tests. Basic-event
// probabilities stay live — mutate them with BasicEvent.SetProbability
// between evaluations; structure (gates, children, which events repeat) is
// frozen at Compile.
//
// A Compiled tree is NOT safe for concurrent use: evaluation temporarily
// rewrites shared-event probabilities during Shannon factoring and reuses
// internal scratch. Use one Compiled per goroutine.
type Compiled struct {
	root    Node
	prog    []cnode
	stack   []float64
	shared  []*BasicEvent // repeated events, first-occurrence order
	orig    []float64     // saved probabilities during factoring
	cutsets []CutSet
}

// Compile freezes a fault tree's structure. It fails if the tree has more
// than 20 repeated basic events, the most that Shannon factoring over their
// 2^d joint states supports.
func Compile(root Node) (*Compiled, error) {
	kernelCounters.compiles.Add(1)
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
		return nil, fmt.Errorf("faulttree: %d repeated events exceed factoring limit %d", len(shared), maxShared)
	}
	c := &Compiled{
		root:    root,
		shared:  shared,
		orig:    make([]float64, len(shared)),
		cutsets: MinimalCutSets(root),
	}
	c.emit(root)
	c.stack = make([]float64, 0, len(c.prog))
	return c, nil
}

// emit appends the post-order program for n.
func (c *Compiled) emit(n Node) {
	switch t := n.(type) {
	case *BasicEvent:
		c.prog = append(c.prog, cnode{event: t})
	case *gate:
		for _, child := range t.children {
			c.emit(child)
		}
		instr := cnode{kind: t.kind, k: t.k, nchild: len(t.children)}
		if t.kind == gateKofN {
			instr.dp = make([]float64, len(t.children)+1)
		}
		c.prog = append(c.prog, instr)
	default:
		panic(fmt.Sprintf("faulttree: unknown node type %T", n))
	}
}

// Root returns the tree the program was compiled from.
func (c *Compiled) Root() Node { return c.root }

// evalProg runs the post-order program once, evaluating the tree under the
// assumption that each basic event appears at most once: children are
// combined in declaration order — AND as a product, OR as one minus the
// product of complements, k-of-n by a DP over the number of failed
// children.
//
//ta:hotpath
func (c *Compiled) evalProg() float64 {
	stack := c.stack[:0]
	//lint:ignore hotpathalloc appends refill c.stack within the capacity reserved at Compile; no growth after the first evaluation
	for i := range c.prog {
		n := &c.prog[i]
		switch n.kind {
		case 0:
			stack = append(stack, n.event.prob)
		case gateAND:
			base := len(stack) - n.nchild
			p := 1.0
			for _, v := range stack[base:] {
				p *= v
			}
			stack = append(stack[:base], p)
		case gateOR:
			base := len(stack) - n.nchild
			q := 1.0
			for _, v := range stack[base:] {
				q *= 1 - v
			}
			stack = append(stack[:base], 1-q)
		default: // k-of-n via DP on the number of failed children
			base := len(stack) - n.nchild
			dp := n.dp
			dp[0] = 1
			for j := 1; j < len(dp); j++ {
				dp[j] = 0
			}
			for i, v := range stack[base:] {
				for j := i + 1; j >= 1; j-- {
					dp[j] = dp[j]*(1-v) + dp[j-1]*v
				}
				dp[0] *= 1 - v
			}
			var s float64
			for j := n.k; j < len(dp); j++ {
				s += dp[j]
			}
			stack = append(stack[:base], s)
		}
	}
	c.stack = stack
	return stack[0]
}

// TopEventProbability evaluates the probability of the tree's top event over
// the frozen structure, allocation-free, reading each basic event's current
// probability. Basic events appearing multiple times in the tree (shared
// failure causes) are handled exactly by Shannon decomposition; the cost is
// O(2^d) in the number d of repeated events, and every event's probability
// is restored afterwards.
//
//ta:hotpath
func (c *Compiled) TopEventProbability() float64 {
	kernelCounters.evals.Add(1)
	if len(c.shared) == 0 {
		return c.evalProg()
	}
	for i, e := range c.shared {
		c.orig[i] = e.prob
	}
	var total float64
	for mask := 0; mask < 1<<len(c.shared); mask++ {
		w := 1.0
		for i, e := range c.shared {
			if mask&(1<<i) != 0 {
				e.prob = 1
				w *= c.orig[i]
			} else {
				e.prob = 0
				w *= 1 - c.orig[i]
			}
		}
		if w == 0 {
			continue
		}
		total += w * c.evalProg()
	}
	for i, e := range c.shared {
		e.prob = c.orig[i]
	}
	return total
}

// MinimalCutSets returns the tree's minimal cut sets, computed once at
// Compile: cut sets depend only on structure, never on probabilities, so
// sweeps query the cache instead of re-running MOCUS expansion. The returned
// slice is shared — callers must not mutate it.
func (c *Compiled) MinimalCutSets() []CutSet {
	kernelCounters.cutSetQueries.Add(1)
	return c.cutsets
}
