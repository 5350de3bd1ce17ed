package dtmc

import (
	"errors"
	"fmt"
	"sort"
)

// MaxPathStates bounds the reachable (node, mark-set) states of one
// path-class expansion. The largest expansion built from this repository's
// models, examples, goldens and fuzz seeds has 29 states (the Figure 2
// profile), and FuzzDiagram's pool can reach at most 160; the budget leaves
// 17× headroom over the first while capping the dense I−Q of the solve at
// 2 MiB. An all-to-all diagram with one service per step needs 256 states at
// six services and 576 at seven, so seven are rejected.
const MaxPathStates = 512

// ErrStateBudget reports a path-class expansion with more than
// MaxPathStates reachable states.
var ErrStateBudget = errors.New("dtmc: path-class expansion exceeds the state budget")

// Arc is one weighted edge of a graph: the index of its head and its
// probability.
type Arc struct {
	To int
	P  float64
}

// PathGraph is a probabilistic graph walked from Start until End: an
// operational profile (Start → functions → Exit) or an interaction diagram
// (Begin → steps → End). Both the exact path-class analysis and the visit
// simulators walk it.
type PathGraph struct {
	// Names names the nodes.
	Names []string
	// Succ lists each node's successors in name order; End has none.
	Succ [][]Arc
	// Marks holds the bits a path collects at each node it visits: a
	// function's bit in a profile, the bits of a step's services in a
	// diagram.
	Marks      []uint64
	Start, End int
}

// NewPathGraph builds the path graph over names, walked from names[0] to the
// last name, with the given marks and each node's successors, read from
// trans, listed in name order. Every successor must be one of names.
func NewPathGraph(names []string, marks []uint64, trans map[string]map[string]float64) PathGraph {
	g := PathGraph{
		Names: names,
		Succ:  make([][]Arc, len(names)),
		Marks: marks,
		End:   len(names) - 1,
	}
	index := make(map[string]int, len(names))
	for i, name := range names {
		index[name] = i
	}
	for i, name := range names {
		row := trans[name]
		tos := make([]string, 0, len(row))
		for to := range row {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			g.Succ[i] = append(g.Succ[i], Arc{To: index[to], P: row[to]})
		}
	}
	return g
}

// PathClass is one class of Start → End paths: those that collect exactly
// the mark set Marks, with their total probability.
type PathClass struct {
	Marks       uint64
	Probability float64
}

// PathClasses returns the probability of every mark set with which a walk
// from Start reaches End, in the order the expansion first reaches them,
// omitting mark sets of probability zero. Cycles collapse: a path class is
// its mark set, however often the path repeats a node.
//
// The graph is expanded into the absorbing chain over reachable
// (node, mark-set) states, numbered breadth-first from Start with successors
// in the graph's name order, and solved on the compiled kernel. The
// numbering depends only on the graph, so equal graphs give bit-identical
// probabilities. An expansion beyond MaxPathStates states is rejected with
// ErrStateBudget before any matrix is allocated, and a walk that can reach a
// node other than End without successors is rejected as trapped.
//
//ta:deterministic
func (g *PathGraph) PathClasses() ([]PathClass, error) {
	type state struct {
		node  int
		marks uint64
	}
	start := state{node: g.Start, marks: g.Marks[g.Start]}
	states := []state{start}
	index := map[state]int{start: 0}
	rows := make([][]Arc, 0, len(g.Succ))
	for k := 0; k < len(states); k++ {
		cur := states[k]
		if cur.node == g.End {
			rows = append(rows, nil)
			continue
		}
		succ := g.Succ[cur.node]
		if len(succ) == 0 {
			return nil, fmt.Errorf("dtmc: path trapped at %q, which has no successors", g.Names[cur.node])
		}
		row := make([]Arc, len(succ))
		for i, a := range succ {
			next := state{node: a.To, marks: cur.marks | g.Marks[a.To]}
			j, ok := index[next]
			if !ok {
				if len(states) == MaxPathStates {
					return nil, fmt.Errorf("%w: more than %d reachable states", ErrStateBudget, MaxPathStates)
				}
				j = len(states)
				index[next] = j
				states = append(states, next)
			}
			row[i] = Arc{To: j, P: a.P}
		}
		rows = append(rows, row)
	}
	cc, err := compile(nil, rows)
	if err != nil {
		return nil, err
	}
	an, err := cc.Analyze()
	if err != nil {
		return nil, err
	}
	// The start state is transient and numbered first, so its absorption
	// probabilities are the first row of B.
	out := make([]PathClass, 0, len(cc.absorbing))
	for col, i := range cc.absorbing {
		if p := an.absorb[col]; p > 0 {
			out = append(out, PathClass{Marks: states[i].marks, Probability: p})
		}
	}
	return out, nil
}
