package faulttree

import (
	"fmt"
	"math"
	"testing"
)

// fuzzProbs are the basic-event probabilities FuzzCompiledFaultTree draws
// from, edges included.
var fuzzProbs = []float64{0, 1, 1e-300, 1e-12, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-9, 1 - 1e-16}

// cutSetBound bounds the number of raw cut sets MOCUS expansion builds for
// n, so the fuzzer can skip trees whose Compile would take unbounded memory.
func cutSetBound(n Node) float64 {
	g, ok := n.(*gate)
	if !ok {
		return 1
	}
	switch g.kind {
	case gateOR:
		var s float64
		for _, c := range g.children {
			s += cutSetBound(c)
		}
		return s
	default: // AND, and k-of-n as an OR over k-subsets of ANDs
		p := 1.0
		for _, c := range g.children {
			p *= math.Max(cutSetBound(c), 1)
		}
		if g.kind == gateKofN {
			p *= math.Pow(2, float64(len(g.children)))
		}
		return p
	}
}

// FuzzCompiledFaultTree checks Compiled.TopEventProbability against the
// recursive reference on AND/OR/k-of-n trees decoded from arbitrary bytes
// over a pool of 24 basic events, so events repeat: the two must agree in
// Float64bits, both must fail beyond 20 repeated events, and every event's
// probability must be restored after each evaluation.
//
// Byte stream encoding: data[0] rotates the events' probabilities through
// fuzzProbs. Each node then reads one byte: a multiple of 4 makes a leaf,
// naming its pool event with the next byte, and so does any byte at depth 4
// or once the tree has 64 leaves; otherwise 1, 2 or 3 mod 4 opens an AND, OR
// or k-of-n gate whose next byte gives 1 + b%6 children (a k-of-n gate reads
// k from one more byte after its children). Missing bytes read as 0.
func FuzzCompiledFaultTree(f *testing.F) {
	f.Add([]byte{0, 2, 1, 0, 0, 0, 1})                      // OR(e0, e1)
	f.Add([]byte{3, 1, 1, 2, 1, 0, 0, 0, 1, 0, 0})          // AND(OR(e0, e1), e0)
	f.Add([]byte{5, 3, 2, 0, 0, 0, 1, 2, 1, 0, 0, 0, 2, 1}) // 2-of-3(e0, e1, OR(e0, e2))
	wide := []byte{1, 2, 5}                                 // OR of six ANDs of six leaves: 12 repeated events
	for i := 0; i < 6; i++ {
		wide = append(wide, 1, 5)
		for j := 0; j < 6; j++ {
			wide = append(wide, 0, byte(i*6+j))
		}
	}
	f.Add(wide)
	tooWide := []byte{1, 2, 5} // OR of six ORs of six ORs of two leaves, over 64 leaves: all 24 events repeat
	for i := 0; i < 36; i++ {
		if i%6 == 0 {
			tooWide = append(tooWide, 2, 5)
		}
		tooWide = append(tooWide, 2, 1, 0, byte(2*i), 0, byte(2*i+1))
	}
	f.Add(tooWide)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		pool := make([]*BasicEvent, 24)
		for i := range pool {
			pool[i] = MustBasicEvent(fmt.Sprintf("e%d", i), fuzzProbs[(i*7+int(data[0]))%len(fuzzProbs)])
		}
		pos, leaves := 1, 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1])
		}
		var node func(depth int) Node
		node = func(depth int) Node {
			op := next() % 4
			if op == 0 || depth == 4 || leaves >= 64 {
				leaves++
				return pool[next()%len(pool)]
			}
			children := make([]Node, 1+next()%6)
			for i := range children {
				children[i] = node(depth + 1)
			}
			switch op {
			case 1:
				return AND("and", children...)
			case 2:
				return OR("or", children...)
			default:
				return AtLeast("vote", 1+next()%len(children), children...)
			}
		}
		root := node(0)

		count := map[*BasicEvent]int{}
		var shared int
		for _, e := range root.events(nil) {
			if count[e]++; count[e] == 2 {
				shared++
			}
		}
		restored := func(when string) {
			t.Helper()
			for i, e := range pool {
				if want := fuzzProbs[(i*7+int(data[0]))%len(fuzzProbs)]; e.prob != want {
					t.Fatalf("after %s: %s has probability %v, want %v", when, e.label, e.prob, want)
				}
			}
		}
		if shared <= 20 && cutSetBound(root) > 1e4 {
			return // MOCUS in Compile would expand too many cut sets
		}
		want, wantErr := TopEventProbability(root)
		restored("the reference")
		cc, err := Compile(root)
		if (wantErr == nil) != (err == nil) || (shared > 20) != (err != nil) {
			t.Fatalf("%d repeated events: reference error %v, Compile error %v", shared, wantErr, err)
		}
		if err != nil {
			return
		}
		got := cc.TopEventProbability()
		restored("the compiled evaluation")
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("compiled %v != reference %v (expected bit-identical)", got, want)
		}
	})
}
