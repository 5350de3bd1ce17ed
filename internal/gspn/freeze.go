package gspn

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/ctmc"
)

// kernelCounters aggregates frozen-solver activity across every net in the
// process, mirroring the ctmc/dtmc kernel counters. Exported through
// ReadKernelStats, which obs.RegisterKernels publishes as kernel_gspn_*.
var kernelCounters struct {
	freezes     atomic.Int64
	freezeHits  atomic.Int64
	solves      atomic.Int64
	edgeReplays atomic.Int64
}

// KernelStats is a snapshot of the process-wide frozen-GSPN counters.
type KernelStats struct {
	// Freezes counts reachability explorations; FreezeHits counts Analyze or
	// Freeze calls served from a net's cached reachability graph.
	Freezes    int64
	FreezeHits int64
	// Solves counts steady-state re-solves over frozen graphs; EdgeReplays
	// counts rate re-evaluations across those solves (one per frozen edge
	// per solve).
	Solves      int64
	EdgeReplays int64
}

// ReadKernelStats returns the current process-wide kernel counters.
func ReadKernelStats() KernelStats {
	return KernelStats{
		Freezes:     kernelCounters.freezes.Load(),
		FreezeHits:  kernelCounters.freezeHits.Load(),
		Solves:      kernelCounters.solves.Load(),
		EdgeReplays: kernelCounters.edgeReplays.Load(),
	}
}

// vnode is one node of a frozen vanishing-resolution tree: the chains of
// immediate firings from one marking, with every marking key precomputed, so
// a re-solve recomputes only the branch probabilities (which depend on
// immediate-transition weights) without cloning markings or rebuilding keys.
//
// replay weighs each enabled immediate by its share of the total weight and
// accumulates over key-sorted child targets, so replayed probabilities are
// bit-identical to a fresh recursive resolution (resolveVanishing in
// reference_test.go).
type vnode struct {
	keys  []string  // sorted tangible-target keys of this subtree
	marks []Marking // aligned with keys (used only while freezing)
	probs []float64 // replay buffer aligned with keys

	imm      []*transition // enabled immediates in declaration order (empty: leaf)
	children []*vnode      // resolution of imm[i].fire(m)
	childPos [][]int       // childPos[i][k] = index of children[i].keys[k] in keys
}

// replay recomputes probs from the current immediate-transition weights.
func (v *vnode) replay() {
	if len(v.imm) == 0 {
		v.probs[0] = 1
		return
	}
	var totalWeight float64
	for _, t := range v.imm {
		totalWeight += t.weight
	}
	for i := range v.probs {
		v.probs[i] = 0
	}
	for i, t := range v.imm {
		branch := t.weight / totalWeight
		child := v.children[i]
		child.replay()
		pos := v.childPos[i]
		for k, p := range child.probs {
			v.probs[pos[k]] += branch * p
		}
	}
}

// freezeVanishing builds the vanishing-resolution tree for m, failing on a
// chain of immediate firings deeper than maxVanishingDepth.
func (n *Net) freezeVanishing(m Marking, depth int) (*vnode, error) {
	imm := n.immediateEnabled(m)
	if len(imm) == 0 {
		return &vnode{
			keys:  []string{m.Key(n.places)},
			marks: []Marking{m},
			probs: make([]float64, 1),
		}, nil
	}
	if depth >= maxVanishingDepth {
		return nil, fmt.Errorf("%w: vanishing chain deeper than %d (immediate-transition loop?)", ErrAnalysis, maxVanishingDepth)
	}
	v := &vnode{imm: imm}
	seen := make(map[string]Marking)
	for _, t := range imm {
		child, err := n.freezeVanishing(t.fire(m), depth+1)
		if err != nil {
			return nil, err
		}
		v.children = append(v.children, child)
		for k, key := range child.keys {
			seen[key] = child.marks[k]
		}
	}
	keys := make([]string, 0, len(seen))
	for key := range seen {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	v.keys = keys
	v.marks = make([]Marking, len(keys))
	v.probs = make([]float64, len(keys))
	pos := make(map[string]int, len(keys))
	for i, key := range keys {
		pos[key] = i
		v.marks[i] = seen[key]
	}
	v.childPos = make([][]int, len(v.children))
	for i, child := range v.children {
		cp := make([]int, len(child.keys))
		for k, key := range child.keys {
			cp[k] = pos[key]
		}
		v.childPos[i] = cp
	}
	return v, nil
}

// frozenEdge is one timed firing recorded during reachability exploration:
// the source marking and transition (whose rate function is re-evaluated at
// every solve) and the frozen resolution of the fired marking.
type frozenEdge struct {
	fromKey string
	t       *transition
	m       Marking
	node    *vnode
	slots   []int // aligned with node.keys; -1 marks self-loops (skipped)
}

// Frozen is a net's cached reachability graph: the tangible markings, the
// embedded compiled tangible-marking CTMC, and the replay structures needed to recompute every transition rate
// from the net's current rate functions and weights. Structure is keyed on
// the net's places, transitions, and arcs: structural mutations invalidate
// the cache, while SetTimedRate/SetTimedRateFunc/SetImmediateWeight do not —
// they are the rate-only perturbations Solve re-evaluates without
// re-exploring state space.
//
// Solve locks the owning net, so a shared Frozen (or repeated Net.Analyze)
// is safe for concurrent use.
type Frozen struct {
	net      *Net
	keys     []string  // tangible-marking keys in chain declaration order
	marks    []Marking // tangible markings aligned with keys
	stateOf  map[string]int
	cc       *ctmc.Compiled
	edges    []frozenEdge
	slotVal  []float64 // accumulated rate per distinct (from, to) pair
	slotFrom []int
	slotTo   []int
}

// NumMarkings returns the number of tangible markings in the frozen graph.
func (f *Frozen) NumMarkings() int { return len(f.keys) }

// buildFrozen explores the reachability graph breadth-first from the
// initial marking, resolving vanishing markings through frozen trees and
// recording the replay structures.
func (n *Net) buildFrozen(maxMarkings int) (*Frozen, error) {
	if maxMarkings < 1 {
		maxMarkings = 100000
	}
	if len(n.places) == 0 {
		return nil, fmt.Errorf("%w: no places", ErrNet)
	}
	if len(n.transitions) == 0 {
		return nil, fmt.Errorf("%w: no transitions", ErrNet)
	}
	initNode, err := n.freezeVanishing(n.InitialMarking(), 0)
	if err != nil {
		return nil, err
	}
	f := &Frozen{net: n, stateOf: make(map[string]int)}
	chain := ctmc.New()
	var queue []Marking
	enqueue := func(key string, m Marking) {
		if _, seen := f.stateOf[key]; !seen {
			f.stateOf[key] = len(f.keys)
			f.keys = append(f.keys, key)
			f.marks = append(f.marks, m)
			chain.AddState(key)
			queue = append(queue, m)
		}
	}
	for k, key := range initNode.keys {
		enqueue(key, initNode.marks[k])
	}
	slotOf := make(map[[2]int]int)
	for len(queue) > 0 {
		if len(f.keys) > maxMarkings {
			return nil, fmt.Errorf("%w: more than %d tangible markings", ErrAnalysis, maxMarkings)
		}
		m := queue[0]
		queue = queue[1:]
		key := m.Key(n.places)
		from := f.stateOf[key]
		for _, t := range n.timedEnabled(m) {
			rate := t.rate(m)
			if rate <= 0 {
				return nil, fmt.Errorf("%w: transition %q enabled with rate %v in marking %s", ErrAnalysis, t.name, rate, key)
			}
			node, err := n.freezeVanishing(t.fire(m), 0)
			if err != nil {
				return nil, err
			}
			node.replay()
			edge := frozenEdge{fromKey: key, t: t, m: m, node: node, slots: make([]int, len(node.keys))}
			for k, toKey := range node.keys {
				enqueue(toKey, node.marks[k])
				if toKey == key {
					edge.slots[k] = -1 // self-loop through vanishing chain
					continue
				}
				if err := chain.AddTransition(key, toKey, rate*node.probs[k]); err != nil {
					return nil, err
				}
				pair := [2]int{from, f.stateOf[toKey]}
				slot, ok := slotOf[pair]
				if !ok {
					slot = len(f.slotVal)
					slotOf[pair] = slot
					f.slotVal = append(f.slotVal, 0)
					f.slotFrom = append(f.slotFrom, pair[0])
					f.slotTo = append(f.slotTo, pair[1])
				}
				edge.slots[k] = slot
			}
			f.edges = append(f.edges, edge)
		}
	}
	cc, err := chain.Compile()
	if err != nil {
		return nil, fmt.Errorf("%w: compile: %v", ErrAnalysis, err)
	}
	f.cc = cc
	return f, nil
}

// Freeze returns the net's cached reachability graph, exploring it if the
// cache is empty or was invalidated by a structural mutation. A cached graph
// is reused only when its marking count fits within maxMarkings (≤ 0 selects
// the default limit), so explosion errors match the uncached path.
func (n *Net) Freeze(maxMarkings int) (*Frozen, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.freezeLocked(maxMarkings)
}

func (n *Net) freezeLocked(maxMarkings int) (*Frozen, error) {
	eff := maxMarkings
	if eff < 1 {
		eff = 100000
	}
	if n.frozen != nil && len(n.frozen.keys) <= eff {
		kernelCounters.freezeHits.Add(1)
		return n.frozen, nil
	}
	kernelCounters.freezes.Add(1)
	f, err := n.buildFrozen(maxMarkings)
	if err != nil {
		return nil, err
	}
	n.frozen = f
	return f, nil
}

// Solve re-evaluates every frozen edge's rate and vanishing probabilities
// from the net's current rate functions and weights, refreshes the embedded
// compiled CTMC, and solves it for steady state. Results are bit-identical
// to a fresh Net.Analyze of the same net: the rate accumulation replays the
// exact AddTransition order of reachability exploration.
func (f *Frozen) Solve() (*Analysis, error) {
	f.net.mu.Lock()
	defer f.net.mu.Unlock()
	return f.solveLocked()
}

// solveLocked refreshes the frozen edges and solves the embedded compiled
// chain; apart from the returned Analysis and its steady-state vector
// everything runs in preallocated frozen storage.
//
//ta:hotpath
func (f *Frozen) solveLocked() (*Analysis, error) {
	kernelCounters.solves.Add(1)
	kernelCounters.edgeReplays.Add(int64(len(f.edges)))
	for i := range f.slotVal {
		f.slotVal[i] = 0
	}
	for i := range f.edges {
		e := &f.edges[i]
		rate := e.t.rate(e.m)
		if rate <= 0 {
			return nil, fmt.Errorf("%w: transition %q enabled with rate %v in marking %s", ErrAnalysis, e.t.name, rate, e.fromKey)
		}
		e.node.replay()
		for k, slot := range e.slots {
			if slot >= 0 {
				f.slotVal[slot] += rate * e.node.probs[k]
			}
		}
	}
	for s, v := range f.slotVal {
		from, to := f.keys[f.slotFrom[s]], f.keys[f.slotTo[s]]
		if err := f.cc.SetRate(from, to, v); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrAnalysis, err)
		}
	}
	// A fresh vector per solve: the Analysis keeps it after the next solve.
	pi, err := f.cc.SteadyStateInto(nil)
	if err != nil {
		return nil, fmt.Errorf("%w: steady state: %v", ErrAnalysis, err)
	}
	//lint:ignore hotpathalloc one Analysis header per solve; the solve itself reuses frozen storage
	return &Analysis{frozen: f, pi: pi}, nil
}
