package ctmc

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// FuzzUnmarshalJSON ensures arbitrary input can never panic the chain
// decoder or produce a chain that panics during analysis.
func FuzzUnmarshalJSON(f *testing.F) {
	f.Add([]byte(`{"transitions":[{"from":"up","to":"down","rate":0.001},{"from":"down","to":"up","rate":0.5}]}`))
	f.Add([]byte(`{"transitions":[]}`))
	f.Add([]byte(`{"states":["a"],"transitions":[{"from":"a","to":"b","rate":1e308}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"transitions":[{"from":"a","to":"a","rate":1}]}`))
	f.Add([]byte(`{"transitions":[{"from":"a","to":"b","rate":-5}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Chain
		if err := json.Unmarshal(data, &c); err != nil {
			return // rejected input is fine; panics are not
		}
		// Whatever decoded must survive analysis attempts gracefully.
		if c.NumStates() == 0 {
			return
		}
		_, _ = c.SteadyState()
		if _, err := c.Generator(); err != nil {
			t.Errorf("Generator failed on decoded chain: %v", err)
		}
		// Round trip must succeed for anything that decoded.
		if _, err := json.Marshal(&c); err != nil {
			t.Errorf("re-marshal failed: %v", err)
		}
	})
}

// fuzzRate maps a byte to a transition rate from 1e-6 to about 2.2e6: the
// byte's residue mod 13 picks the decade and its quotient the mantissa.
func fuzzRate(b byte) float64 {
	return math.Pow(10, float64(b%13)-6) * (1 + float64(b/13)/16)
}

// FuzzCompiledCTMC checks the compiled kernels against the generic
// reference solvers on chains decoded from arbitrary bytes: the GTH steady
// state must match in Float64bits, uniformization to 1e-12, and both paths
// must return the same error.
//
// Byte stream encoding: data[0] gives the state count 1 + data[0]&7, and its
// bit 3, when clear, adds the ring s0 → s1 → … → s0 (making the chain
// irreducible) at rate fuzzRate(data[1]). data[2] sets the transient horizon.
// Each later (from, to, rate) byte triple adds one transition; self-loops are
// skipped.
func FuzzCompiledCTMC(f *testing.F) {
	f.Add([]byte{2, 0, 16, 0, 1, 12})                                  // ring at 1e-6, a chord at 1e6
	f.Add([]byte{3, 12, 255, 0, 2, 0, 2, 1, 5})                        // ring at 1e6, a chord at 1e-6
	f.Add([]byte{0, 7, 9})                                             // a single state
	f.Add([]byte{8 | 2, 0, 3, 0, 1, 20, 1, 2, 30})                     // reducible: no way back to s0
	f.Add([]byte{7, 100, 200, 3, 6, 12, 6, 3, 0, 1, 4, 77, 5, 0, 250}) // eight states, mixed rates
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 96 {
			return
		}
		n := 1 + int(data[0]&7)
		name := func(i int) string { return fmt.Sprintf("s%d", i) }
		c := New()
		for i := 0; i < n; i++ {
			c.AddState(name(i))
		}
		if data[0]&8 == 0 && n > 1 {
			for i := 0; i < n; i++ {
				if err := c.AddTransition(name(i), name((i+1)%n), fuzzRate(data[1])); err != nil {
					t.Fatal(err)
				}
			}
		}
		for k := 3; k+2 < len(data); k += 3 {
			from, to := int(data[k])%n, int(data[k+1])%n
			if from == to {
				continue
			}
			if err := c.AddTransition(name(from), name(to), fuzzRate(data[k+2])); err != nil {
				t.Fatal(err)
			}
		}
		cc, err := c.Compile()
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}

		want, wantErr := c.steadyStateVector()
		got, gotErr := cc.SteadyStateInto(nil)
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			t.Fatalf("steady-state errors differ: reference %v, compiled %v", wantErr, gotErr)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("π[%s]: compiled %v != reference %v (expected bit-identical)", name(i), got[i], want[i])
			}
		}

		// Bound λ·t so the Poisson series stays short at every rate scale.
		var maxExit float64
		for i := 0; i < n; i++ {
			maxExit = math.Max(maxExit, c.ExitRate(i))
		}
		horizon := float64(data[2]) / 8
		if maxExit > 0 {
			horizon = float64(data[2]) / maxExit
		}
		initial := Distribution{name(0): 1}
		wantTr, wantErr := c.Transient(initial, horizon, 1e-12)
		gotTr, gotErr := cc.Transient(initial, horizon, 1e-12)
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			t.Fatalf("transient errors differ: reference %v, compiled %v", wantErr, gotErr)
		}
		for s, p := range wantTr {
			if d := math.Abs(gotTr[s] - p); d > 1e-12 {
				t.Fatalf("p(%s, t=%v): compiled %v, reference %v, |diff| %v > 1e-12", s, horizon, gotTr[s], p, d)
			}
		}
	})
}
