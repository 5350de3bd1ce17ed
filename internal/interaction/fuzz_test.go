package interaction

import (
	"testing"

	"repro/internal/dtmc"
)

// FuzzDiagram drives diagram construction from arbitrary bytes: random steps,
// service sets and branch probabilities must never panic, and any diagram
// that passes Validate must yield an availability in [0, 1].
//
// Byte stream encoding (two bytes per operation):
//   - op byte even: declare step s<op%8> requiring the services selected by
//     the low four bits of the argument byte,
//   - op byte odd: add a transition between nodes picked from a small pool
//     (including Begin/End) with probability (arg%100+1)/100.
//
// Construction errors are ignored — the point is to reach Validate and the
// analysis with as many structurally diverse diagrams as possible. After the
// stream is consumed, every node with outgoing mass < 1 gets the remainder
// routed to End so that a large fraction of inputs produce valid diagrams.
func FuzzDiagram(f *testing.F) {
	// A linear two-step diagram.
	f.Add([]byte{0, 0x03, 2, 0x0c, 1, 0, 3, 99})
	// Branching with partial probabilities completed to End.
	f.Add([]byte{0, 0x01, 2, 0x02, 1, 49, 3, 29})
	// Degenerate inputs.
	f.Add([]byte{})
	f.Add([]byte{1, 255, 1, 255, 1, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := New("fuzz")
		stepNames := []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"}
		svcNames := []string{"v0", "v1", "v2", "v3"}
		nodePool := func(b byte) string {
			pool := append([]string{Begin, End}, stepNames...)
			return pool[int(b)%len(pool)]
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			if op%2 == 0 {
				var svcs []string
				for bit, svc := range svcNames {
					if arg&(1<<bit) != 0 {
						svcs = append(svcs, svc)
					}
				}
				_ = d.AddStep(stepNames[int(op/2)%len(stepNames)], svcs...)
			} else {
				q := float64(int(arg)%100+1) / 100
				_ = d.AddTransition(nodePool(op/2), nodePool(arg), q)
			}
		}
		// Route leftover probability mass to End so many inputs validate.
		g := d.Graph()
		rows := make(map[string][]dtmc.Arc, len(g.Names))
		for i, name := range g.Names {
			rows[name] = g.Succ[i]
		}
		for _, node := range append([]string{Begin}, stepNames...) {
			var sum float64
			for _, a := range rows[node] {
				sum += a.P
			}
			if node != Begin && len(rows[node]) == 0 {
				// Undeclared or isolated steps: AddTransition rejects
				// undeclared sources, so this is safe to attempt blindly.
				_ = d.AddTransition(node, End, 1)
				continue
			}
			if sum < 1 {
				_ = d.AddTransition(node, End, 1-sum)
			}
		}
		if err := d.Validate(); err != nil {
			return // invalid diagrams may be rejected, but must not panic
		}
		avail := make(map[string]float64, len(svcNames))
		for _, svc := range svcNames {
			avail[svc] = 0.7
		}
		a, err := d.Availability(avail)
		if err != nil {
			// Valid structure can still defeat the analysis (e.g. a cycle
			// that never reaches End makes the chain non-absorbing); that
			// must surface as an error, not a panic or a bogus number.
			return
		}
		if a < 0 || a > 1 {
			t.Fatalf("availability %v outside [0,1]", a)
		}
		scenarios, err := d.Scenarios()
		if err != nil {
			t.Fatalf("Availability succeeded but Scenarios failed: %v", err)
		}
		var total float64
		for _, sc := range scenarios {
			if sc.Probability < 0 || sc.Probability > 1+1e-9 {
				t.Fatalf("scenario probability %v outside [0,1]", sc.Probability)
			}
			total += sc.Probability
		}
		if total < 1-1e-6 || total > 1+1e-6 {
			t.Fatalf("scenario probabilities sum to %v", total)
		}
	})
}
