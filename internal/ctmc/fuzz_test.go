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

// fuzzChain decodes a chain from fuzz bytes, or returns nil when the input
// is out of range. data[0] gives the state count 1 + data[0]&7, and its bit
// 3, when clear, adds the ring s0 → s1 → … → s0 (making the chain
// irreducible) at rate fuzzRate(data[1]). data[2] is left to the caller.
// Each later (from, to, rate) byte triple adds one transition; self-loops
// are skipped.
func fuzzChain(t *testing.T, data []byte) *Chain {
	if len(data) < 3 || len(data) > 96 {
		return nil
	}
	n := 1 + int(data[0]&7)
	c := New()
	for i := 0; i < n; i++ {
		c.AddState(fuzzName(i))
	}
	if data[0]&8 == 0 && n > 1 {
		for i := 0; i < n; i++ {
			if err := c.AddTransition(fuzzName(i), fuzzName((i+1)%n), fuzzRate(data[1])); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := 3; k+2 < len(data); k += 3 {
		from, to := int(data[k])%n, int(data[k+1])%n
		if from == to {
			continue
		}
		if err := c.AddTransition(fuzzName(from), fuzzName(to), fuzzRate(data[k+2])); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func fuzzName(i int) string { return fmt.Sprintf("s%d", i) }

// fuzzHorizon turns data[2] into a time horizon with λ·t ≤ 255·1.02, so the
// Poisson series stays short at every rate scale.
func fuzzHorizon(c *Chain, b byte) float64 {
	var maxExit float64
	for i := 0; i < c.NumStates(); i++ {
		maxExit = math.Max(maxExit, c.ExitRate(i))
	}
	if maxExit > 0 {
		return float64(b) / maxExit
	}
	return float64(b) / 8
}

// FuzzCompiledCTMC checks the compiled kernels against the generic
// reference solvers on chains decoded from arbitrary bytes (see fuzzChain):
// the GTH steady state must match in Float64bits, uniformization to 1e-12,
// and both paths must return the same error. data[2] sets the transient
// horizon.
func FuzzCompiledCTMC(f *testing.F) {
	f.Add([]byte{2, 0, 16, 0, 1, 12})                                  // ring at 1e-6, a chord at 1e6
	f.Add([]byte{3, 12, 255, 0, 2, 0, 2, 1, 5})                        // ring at 1e6, a chord at 1e-6
	f.Add([]byte{0, 7, 9})                                             // a single state
	f.Add([]byte{8 | 2, 0, 3, 0, 1, 20, 1, 2, 30})                     // reducible: no way back to s0
	f.Add([]byte{7, 100, 200, 3, 6, 12, 6, 3, 0, 1, 4, 77, 5, 0, 250}) // eight states, mixed rates
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzChain(t, data)
		if c == nil {
			return
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
				t.Fatalf("π[%s]: compiled %v != reference %v (expected bit-identical)", fuzzName(i), got[i], want[i])
			}
		}

		horizon := fuzzHorizon(c, data[2])
		initial := Distribution{fuzzName(0): 1}
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

// FuzzCompiledReward checks the compiled occupancy and absorption kernels
// against the reference solvers on chains decoded by fuzzChain, started in
// s0 over the horizon data[2] sets:
//
//   - occupancy·r matches the reference ExpectedAccumulatedReward to 1e-9
//     relative, plus the truncation bound tol·t·max r both series allow,
//     for the reward rates r(s_i) = i mod 3;
//   - the occupancy sums to t within 1e-12 relative;
//   - the mean times to absorption into s_{n−1} match the reference to
//     1e-12 relative, and both paths return the same error.
func FuzzCompiledReward(f *testing.F) {
	f.Add([]byte{2, 0, 16, 0, 1, 12})                                  // ring at 1e-6, a chord at 1e6
	f.Add([]byte{3, 12, 255, 0, 2, 0, 2, 1, 5})                        // ring at 1e6, a chord at 1e-6
	f.Add([]byte{0, 7, 9})                                             // a single state
	f.Add([]byte{8 | 4, 0, 200})                                       // five states, no transitions
	f.Add([]byte{8 | 2, 0, 3, 0, 1, 20, 1, 2, 30})                     // reducible: s0 → s1 → s2, absorbing
	f.Add([]byte{8 | 3, 0, 99, 0, 1, 0, 1, 0, 12, 1, 2, 6, 3, 0, 9})   // reducible: s2 absorbs short of the target s3
	f.Add([]byte{7, 100, 200, 3, 6, 12, 6, 3, 0, 1, 4, 77, 5, 0, 250}) // eight states, mixed rates
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzChain(t, data)
		if c == nil {
			return
		}
		cc, err := c.Compile()
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		n := c.NumStates()
		horizon := fuzzHorizon(c, data[2])
		initial := Distribution{fuzzName(0): 1}
		reward := func(name string) float64 {
			i, _ := c.StateIndex(name)
			return float64(i % 3)
		}

		const tol = 1e-12
		occ, err := cc.Occupancy(initial, horizon, tol)
		if err != nil {
			t.Fatalf("Occupancy: %v", err)
		}
		// The reference's tolerance bounds the truncated mass times t.
		want, err := c.ExpectedAccumulatedReward(initial, horizon, reward, tol*horizon)
		if err != nil {
			t.Fatalf("reference reward: %v", err)
		}
		got := occ.ExpectedReward(reward)
		if d := math.Abs(got - want); d > 1e-9*math.Abs(want)+tol*horizon*2 {
			t.Fatalf("reward over [0, %v]: compiled %v, reference %v, |diff| %v", horizon, got, want, d)
		}
		if sum := occ.SumOver(func(string) bool { return true }); math.Abs(sum-horizon) > 1e-12*horizon {
			t.Fatalf("Σ occupancy = %v, want t = %v", sum, horizon)
		}

		target := fuzzName(n - 1)
		wantH, wantErr := c.MeanTimeToAbsorption(target)
		gotH, gotErr := cc.MeanTimeToAbsorption(target)
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			t.Fatalf("absorption errors differ: reference %v, compiled %v", wantErr, gotErr)
		}
		if len(gotH) != len(wantH) {
			t.Fatalf("absorption times: compiled %v, reference %v", gotH, wantH)
		}
		for s, h := range wantH {
			if d := math.Abs(gotH[s] - h); d > 1e-12*h {
				t.Fatalf("E[time %s → %s]: compiled %v, reference %v, |diff| %v", s, target, gotH[s], h, d)
			}
		}
	})
}
