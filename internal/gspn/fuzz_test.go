package gspn

import (
	"fmt"
	"testing"
)

// fuzzNetLimit bounds reachability so malformed inputs cannot explode the
// corpus runtime; both solver paths receive the same limit, so explosion
// errors must agree too.
const fuzzNetLimit = 200

// buildFuzzNet decodes data into a small GSPN over a fixed pool of places
// and transitions. scale multiplies every timed rate and immediate weight —
// the fuzz harness uses it to rebuild a perturbed net from scratch so the
// frozen re-solve path can be compared against a fresh generic solve with
// bit-identical parameters. The returned maps hold each transition's
// unscaled base rate or weight.
//
// Encoding: the first 3 bytes set initial tokens (0..2) for places p0..p2;
// the rest is consumed as (op, arg) pairs declaring transitions and arcs.
// Construction errors (duplicates, etc.) are ignored — both builds see the
// same bytes, so they skip the same ops.
func buildFuzzNet(data []byte, scale float64) (*Net, map[string]float64, map[string]float64) {
	n := New()
	places := []string{"p0", "p1", "p2"}
	for i, p := range places {
		tokens := 0
		if i < len(data) {
			tokens = int(data[i]) % 3
		}
		_ = n.AddPlace(p, tokens)
	}
	timed := make(map[string]float64)
	imm := make(map[string]float64)
	var timedNames, immNames []string
	for i := 3; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		switch op % 5 {
		case 0: // timed transition
			name := fmt.Sprintf("t%d", i)
			base := (float64(arg%50) + 1) / 10
			if n.AddTimedTransition(name, base*scale) == nil {
				timed[name] = base
				timedNames = append(timedNames, name)
			}
		case 1: // immediate transition
			name := fmt.Sprintf("i%d", i)
			base := float64(arg%20) + 1
			if n.AddImmediateTransition(name, base*scale) == nil {
				imm[name] = base
				immNames = append(immNames, name)
			}
		case 2: // input arc
			if t := pickTransition(timedNames, immNames, arg); t != "" {
				_ = n.AddInputArc(places[int(arg)%len(places)], t, int(arg/16)%2+1)
			}
		case 3: // output arc
			if t := pickTransition(timedNames, immNames, arg); t != "" {
				_ = n.AddOutputArc(t, places[int(arg)%len(places)], 1)
			}
		case 4: // inhibitor arc
			if t := pickTransition(timedNames, immNames, arg); t != "" {
				_ = n.AddInhibitorArc(places[int(arg)%len(places)], t, int(arg/8)%3+1)
			}
		}
	}
	return n, timed, imm
}

// pickTransition selects a declared transition for an arc op: the arg's high
// bit prefers the immediate list, the rest indexes the chosen pool.
func pickTransition(timed, imm []string, arg byte) string {
	pool := timed
	if arg >= 128 && len(imm) > 0 {
		pool = imm
	}
	if len(pool) == 0 {
		pool = imm
	}
	if len(pool) == 0 {
		return ""
	}
	return pool[int(arg)%len(pool)]
}

// genericSolve runs the uncached ToCTMC reference and solves its chain.
func genericSolve(n *Net) (map[string]float64, error) {
	chain, _, err := n.ToCTMC(fuzzNetLimit)
	if err != nil {
		return nil, err
	}
	cc, err := chain.Compile()
	if err != nil {
		return nil, err
	}
	steady, err := cc.SteadyState()
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, chain.NumStates())
	for _, key := range chain.StateNames() {
		out[key] = steady.Probability(key)
	}
	return out, nil
}

// FuzzFrozenGSPN cross-checks the frozen Analyze path against the generic
// ToCTMC reachability reference on random nets, tolerance 0: state
// probabilities must be bit-identical and errors must agree in presence.
// It then perturbs every rate and weight through the Set* mutators and
// checks the frozen re-solve against a from-scratch build with the same
// scaled parameters.
func FuzzFrozenGSPN(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 10, 10, 0, 15, 3}) // one timed loop
	f.Add([]byte{2, 0, 0, 0, 20, 2, 0, 3, 1, 5, 5, 2, 1, 3, 2, 0, 9, 2, 128, 3, 129})
	f.Add([]byte{1, 1, 0, 5, 7, 10, 3, 2, 0, 3, 1, 0, 40, 2, 1, 3, 2, 4, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			t.Skip("cap net size")
		}
		n, timed, imm := buildFuzzNet(data, 1)
		want, wantErr := genericSolve(n)
		got, gotErr := n.Analyze(fuzzNetLimit)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch: generic %v, frozen %v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if got.NumMarkings() != len(want) {
			t.Fatalf("NumMarkings = %d, want %d", got.NumMarkings(), len(want))
		}
		for key, w := range want {
			if g := got.StateProbability(key); g != w {
				t.Fatalf("state %s: frozen %v != generic %v (expected bit-identical)", key, g, w)
			}
		}

		// Rate-only perturbation: scale every rate and weight by the same
		// factor through the Set* mutators, re-solve the frozen graph, and
		// compare against a from-scratch build with the scaled parameters.
		const scale = 3.0
		for name, base := range timed {
			if err := n.SetTimedRate(name, base*scale); err != nil {
				t.Fatalf("SetTimedRate(%s): %v", name, err)
			}
		}
		for name, base := range imm {
			if err := n.SetImmediateWeight(name, base*scale); err != nil {
				t.Fatalf("SetImmediateWeight(%s): %v", name, err)
			}
		}
		fresh, _, _ := buildFuzzNet(data, scale)
		want2, wantErr2 := genericSolve(fresh)
		got2, gotErr2 := n.Analyze(fuzzNetLimit)
		if (wantErr2 == nil) != (gotErr2 == nil) {
			t.Fatalf("perturbed error mismatch: generic %v, frozen %v", wantErr2, gotErr2)
		}
		if wantErr2 != nil {
			return
		}
		for key, w := range want2 {
			if g := got2.StateProbability(key); g != w {
				t.Fatalf("perturbed state %s: frozen %v != fresh generic %v", key, g, w)
			}
		}
	})
}
