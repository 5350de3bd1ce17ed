package travelagency

import (
	"math"
	"testing"

	"repro/internal/gspn"
)

// The GSPN path must reproduce the paper's printed A(WS) — four formalisms
// agreeing on the Table 7 anchor: closed forms, CTMC, simulation, and GSPN.
func TestWebServiceAvailabilityViaGSPN(t *testing.T) {
	p := DefaultParams()
	viaGSPN, err := WebServiceAvailabilityViaGSPN(p)
	if err != nil {
		t.Fatalf("WebServiceAvailabilityViaGSPN: %v", err)
	}
	if math.Abs(viaGSPN-0.999995587) > 5e-10 {
		t.Errorf("A(WS) via GSPN = %.10f, want 0.999995587", viaGSPN)
	}
	closed, err := WebFarm(p).Availability()
	if err != nil {
		t.Fatalf("Availability: %v", err)
	}
	if math.Abs(viaGSPN-closed) > 1e-12 {
		t.Errorf("GSPN %v vs closed form %v", viaGSPN, closed)
	}
}

// TestWebServiceAvailabilityViaGSPNSweep locks the batched GSPN path to the
// per-parameter one bit for bit, and checks the batch explores one
// reachability graph per distinct farm size, re-solving the frozen graph for
// the rate-only perturbations.
func TestWebServiceAvailabilityViaGSPNSweep(t *testing.T) {
	var ps []Params
	for _, n := range []int{3, 4} {
		for _, lambda := range []float64{1e-2, 1e-3, 1e-4} {
			for _, c := range []float64{0.9, 0.98} {
				p := DefaultParams()
				p.WebServers = n
				p.WebFailureRate = lambda
				p.Coverage = c
				p.ReconfigRate = 6 + lambda // vary β too
				ps = append(ps, p)
			}
		}
	}
	want := make([]float64, len(ps))
	for i, p := range ps {
		a, err := WebServiceAvailabilityViaGSPN(p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a
	}
	before := gspn.ReadKernelStats()
	got, err := WebServiceAvailabilityViaGSPNSweep(ps)
	if err != nil {
		t.Fatal(err)
	}
	after := gspn.ReadKernelStats()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d (%+v): sweep %v != per-param %v (must be bit-identical)", i, ps[i], got[i], want[i])
		}
	}
	if d := after.Freezes - before.Freezes; d != 2 {
		t.Errorf("sweep explored %d reachability graphs, want 2 (one per farm size)", d)
	}
	if d := after.FreezeHits - before.FreezeHits; d != int64(len(ps)-2) {
		t.Errorf("frozen-graph re-solves = %d, want %d", d, len(ps)-2)
	}

	bad := DefaultParams()
	bad.WebServers = -1
	if _, err := WebServiceAvailabilityViaGSPNSweep([]Params{DefaultParams(), bad}); err == nil {
		t.Error("invalid sweep point accepted")
	}
	if out, err := WebServiceAvailabilityViaGSPNSweep(nil); err != nil || len(out) != 0 {
		t.Errorf("empty sweep = %v, %v", out, err)
	}
}

func TestWebFarmNetValidation(t *testing.T) {
	p := DefaultParams()
	p.Coverage = 1
	if _, err := WebFarmNet(p); err == nil {
		t.Error("perfect coverage accepted by the GSPN encoding")
	}
	bad := DefaultParams()
	bad.WebServers = 0
	if _, err := WebFarmNet(bad); err == nil {
		t.Error("invalid params accepted")
	}
}

// The net's tangible state space has exactly 2·N_W + 1 markings: N_W+1
// operational levels plus N_W reconfiguration states.
func TestWebFarmNetStateSpace(t *testing.T) {
	p := DefaultParams()
	net, err := WebFarmNet(p)
	if err != nil {
		t.Fatalf("WebFarmNet: %v", err)
	}
	analysis, err := net.Analyze(0)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if got, want := analysis.NumMarkings(), 2*p.WebServers+1; got != want {
		t.Errorf("tangible markings = %d, want %d", got, want)
	}
}

// TestGSPNSumsDeterministic solves the same web-farm net 200 times and
// requires one bit pattern for a multi-marking probability and an expected
// token count: the analysis must sum markings in a fixed order.
func TestGSPNSumsDeterministic(t *testing.T) {
	p := DefaultParams()
	p.WebServers = 6
	p.Coverage = 0.98
	p.WebFailureRate = 1e-3
	net, err := WebFarmNet(p)
	if err != nil {
		t.Fatal(err)
	}
	probBits := map[uint64]bool{}
	tokenBits := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		a, err := net.Analyze(0)
		if err != nil {
			t.Fatal(err)
		}
		probBits[math.Float64bits(a.Probability(func(m gspn.Marking) bool { return m["up"] >= 1 }))] = true
		e, err := a.ExpectedTokens("up")
		if err != nil {
			t.Fatal(err)
		}
		tokenBits[math.Float64bits(e)] = true
	}
	if len(probBits) != 1 || len(tokenBits) != 1 {
		t.Errorf("200 solves gave %d bit patterns for P(up ≥ 1) and %d for E[up], want 1 each", len(probBits), len(tokenBits))
	}
}
