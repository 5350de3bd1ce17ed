package dtmc

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// Start → A; A loops with 1/2, moves to B with 1/4 and ends with 1/4; B
// ends. The loop collapses: {A} and {A, B} each take probability 1/2.
func TestPathClassesCollapseCycles(t *testing.T) {
	g := PathGraph{
		Names: []string{"Start", "A", "B", "End"},
		Succ: [][]Arc{
			{{To: 1, P: 1}},
			{{To: 1, P: 0.5}, {To: 2, P: 0.25}, {To: 3, P: 0.25}},
			{{To: 3, P: 1}},
			nil,
		},
		Marks: []uint64{0, 1, 2, 0},
		End:   3,
	}
	got, err := g.PathClasses()
	if err != nil {
		t.Fatal(err)
	}
	want := []PathClass{{Marks: 1, Probability: 0.5}, {Marks: 3, Probability: 0.5}}
	if len(got) != len(want) {
		t.Fatalf("PathClasses = %v, want %v", got, want)
	}
	for i := range want {
		if got[i].Marks != want[i].Marks || math.Abs(got[i].Probability-want[i].Probability) > 1e-15 {
			t.Errorf("class %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// A walk that can reach a node other than End without successors is trapped.
func TestPathClassesTrapped(t *testing.T) {
	g := PathGraph{
		Names: []string{"Start", "A", "End"},
		Succ:  [][]Arc{{{To: 1, P: 0.5}, {To: 2, P: 0.5}}, nil, nil},
		Marks: []uint64{0, 1, 0},
		End:   2,
	}
	if _, err := g.PathClasses(); err == nil {
		t.Fatal("trapped walk accepted")
	}
}

// An expansion beyond MaxPathStates is rejected with ErrStateBudget.
func TestPathClassesStateBudget(t *testing.T) {
	const n = 10 // nodes 1..n each mark their own bit and reach each other
	g := PathGraph{Names: make([]string, n+2), Succ: make([][]Arc, n+2), Marks: make([]uint64, n+2), End: n + 1}
	for i := range g.Names {
		g.Names[i] = fmt.Sprint(i)
	}
	for i := 1; i <= n; i++ {
		g.Marks[i] = 1 << i
		g.Succ[0] = append(g.Succ[0], Arc{To: i, P: 1.0 / n})
		for j := 1; j <= n+1; j++ {
			g.Succ[i] = append(g.Succ[i], Arc{To: j, P: 1.0 / (n + 1)})
		}
	}
	if _, err := g.PathClasses(); !errors.Is(err, ErrStateBudget) {
		t.Fatalf("error %v, want ErrStateBudget", err)
	}
}
