// Package faulttree implements static fault trees: basic events combined by
// AND / OR / k-of-n gates, with top-event probability evaluation (correct
// under repeated basic events via factoring), minimal cut-set extraction
// (MOCUS-style expansion with minimization), and Birnbaum importance.
//
// AND, OR, AtLeast and NewBasicEvent build a tree; Compile freezes it, and
// every top-event probability is evaluated through the compiled program.
//
// The paper's framework lists fault trees among the techniques usable per
// level ("fault trees, reliability block diagrams, Markov chains..."); this
// package provides them as the dual of package rbd: a fault tree models
// unavailability (failure logic), an RBD models availability (success logic).
package faulttree

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// ErrBadProbability is returned for event probabilities outside [0, 1].
var ErrBadProbability = errors.New("faulttree: probability must be within [0, 1]")

// Node is a node of a fault tree; its Probability is the probability of the
// failure event it represents.
type Node interface {
	// Label returns the node's label for reporting.
	Label() string
	// events appends all basic events below the node (with repetition).
	events(out []*BasicEvent) []*BasicEvent
	// cutSets returns the node's cut sets as sets of basic events.
	cutSets() []eventSet
}

// BasicEvent is a leaf failure event with a fixed probability.
type BasicEvent struct {
	label string
	prob  float64
}

// NewBasicEvent constructs a basic event; probability must be in [0, 1].
func NewBasicEvent(label string, probability float64) (*BasicEvent, error) {
	if probability < 0 || probability > 1 || math.IsNaN(probability) {
		return nil, fmt.Errorf("%w: %q has %v", ErrBadProbability, label, probability)
	}
	return &BasicEvent{label: label, prob: probability}, nil
}

// MustBasicEvent is NewBasicEvent that panics on error, for static models.
func MustBasicEvent(label string, probability float64) *BasicEvent {
	e, err := NewBasicEvent(label, probability)
	if err != nil {
		panic(err)
	}
	return e
}

// Label returns the event label.
func (e *BasicEvent) Label() string { return e.label }

// Probability returns the event probability.
func (e *BasicEvent) Probability() float64 { return e.prob }

// SetProbability updates the event probability (for sensitivity sweeps).
func (e *BasicEvent) SetProbability(p float64) error {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("%w: %q set to %v", ErrBadProbability, e.label, p)
	}
	e.prob = p
	return nil
}

func (e *BasicEvent) events(out []*BasicEvent) []*BasicEvent { return append(out, e) }
func (e *BasicEvent) cutSets() []eventSet                    { return []eventSet{{e: struct{}{}}} }

type gateKind int

const (
	gateAND gateKind = iota + 1
	gateOR
	gateKofN
)

type gate struct {
	label    string
	kind     gateKind
	k        int // for k-of-n
	children []Node
}

// AND returns a gate that fails iff all children fail.
func AND(label string, children ...Node) Node {
	mustChildren("AND", children)
	return &gate{label: label, kind: gateAND, children: children}
}

// OR returns a gate that fails iff at least one child fails.
func OR(label string, children ...Node) Node {
	mustChildren("OR", children)
	return &gate{label: label, kind: gateOR, children: children}
}

// AtLeast returns a voting gate that fails iff at least k children fail.
// It panics if k is out of range (a model-construction error).
func AtLeast(label string, k int, children ...Node) Node {
	mustChildren("AtLeast", children)
	if k < 1 || k > len(children) {
		panic(fmt.Sprintf("faulttree: k=%d out of range for %d children", k, len(children)))
	}
	return &gate{label: label, kind: gateKofN, k: k, children: children}
}

func mustChildren(kind string, children []Node) {
	if len(children) == 0 {
		panic("faulttree: " + kind + " gate with no children")
	}
}

func (g *gate) Label() string { return g.label }

func (g *gate) events(out []*BasicEvent) []*BasicEvent {
	for _, c := range g.children {
		out = c.events(out)
	}
	return out
}

// eventSet is a set of basic events forming one cut set.
type eventSet map[*BasicEvent]struct{}

func (s eventSet) clone() eventSet {
	out := make(eventSet, len(s))
	for e := range s {
		out[e] = struct{}{}
	}
	return out
}

func (s eventSet) subsetOf(t eventSet) bool {
	if len(s) > len(t) {
		return false
	}
	for e := range s {
		if _, ok := t[e]; !ok {
			return false
		}
	}
	return true
}

func (g *gate) cutSets() []eventSet {
	switch g.kind {
	case gateOR:
		var out []eventSet
		for _, c := range g.children {
			out = append(out, c.cutSets()...)
		}
		return out
	case gateAND:
		return crossProduct(g.children)
	default: // k-of-n: OR over all k-subsets of AND
		var out []eventSet
		idx := make([]int, g.k)
		var rec func(start, depth int)
		rec = func(start, depth int) {
			if depth == g.k {
				subset := make([]Node, g.k)
				for i, id := range idx {
					subset[i] = g.children[id]
				}
				out = append(out, crossProduct(subset)...)
				return
			}
			for i := start; i <= len(g.children)-(g.k-depth); i++ {
				idx[depth] = i
				rec(i+1, depth+1)
			}
		}
		rec(0, 0)
		return out
	}
}

func crossProduct(children []Node) []eventSet {
	sets := []eventSet{{}}
	for _, c := range children {
		childSets := c.cutSets()
		next := make([]eventSet, 0, len(sets)*len(childSets))
		for _, s := range sets {
			for _, cs := range childSets {
				merged := s.clone()
				for e := range cs {
					merged[e] = struct{}{}
				}
				next = append(next, merged)
			}
		}
		sets = next
	}
	return sets
}

// CutSet is a minimal cut set: a minimal set of basic-event labels whose
// joint occurrence causes the top event.
type CutSet []string

// MinimalCutSets computes the minimal cut sets of the tree (MOCUS-style
// expansion followed by absorption minimization). The result is sorted by
// ascending order (size), then lexicographically.
func MinimalCutSets(root Node) []CutSet {
	raw := root.cutSets()
	// Absorption: remove any set that contains another set.
	sort.Slice(raw, func(i, j int) bool { return len(raw[i]) < len(raw[j]) })
	var minimal []eventSet
	for _, s := range raw {
		redundant := false
		for _, m := range minimal {
			if m.subsetOf(s) {
				redundant = true
				break
			}
		}
		if !redundant {
			minimal = append(minimal, s)
		}
	}
	out := make([]CutSet, 0, len(minimal))
	seen := make(map[string]bool, len(minimal))
	for _, s := range minimal {
		labels := make([]string, 0, len(s))
		for e := range s {
			labels = append(labels, e.label)
		}
		sort.Strings(labels)
		key := strings.Join(labels, "\x00")
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, labels)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return strings.Join(out[i], ",") < strings.Join(out[j], ",")
	})
	return out
}

// Importance is the Birnbaum importance of a basic event with respect to the
// top event: ∂P(top)/∂P(event).
type Importance struct {
	Event    string
	Birnbaum float64
}

// BirnbaumImportance computes the Birnbaum importance of every distinct
// basic event, sorted descending. The tree is compiled once, and each event
// is evaluated failed and working through the compiled program.
func BirnbaumImportance(root Node) ([]Importance, error) {
	cc, err := Compile(root)
	if err != nil {
		return nil, err
	}
	all := root.events(nil)
	seen := make(map[*BasicEvent]bool, len(all))
	var unique []*BasicEvent
	for _, e := range all {
		if !seen[e] {
			seen[e] = true
			unique = append(unique, e)
		}
	}
	out := make([]Importance, 0, len(unique))
	for _, e := range unique {
		orig := e.prob
		e.prob = 1
		hi := cc.TopEventProbability()
		e.prob = 0
		lo := cc.TopEventProbability()
		e.prob = orig
		out = append(out, Importance{Event: e.label, Birnbaum: hi - lo})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Birnbaum != out[j].Birnbaum {
			return out[i].Birnbaum > out[j].Birnbaum
		}
		return out[i].Event < out[j].Event
	})
	return out, nil
}
