package ctmc_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/repairmodel"
)

// TestSumOverDeterministic pins SumOver and ExpectedReward to one bit
// pattern across calls: the expected first-year up time of the N_W = 4,
// c = 0.98 repair chain (taeval first-year's last row) once read one of two
// values from call to call, because the sum followed map iteration order.
func TestSumOverDeterministic(t *testing.T) {
	m := repairmodel.ImperfectCoverage{
		Servers: 4, FailureRate: 1e-3, RepairRate: 1, Coverage: 0.98, ReconfigRate: 12,
	}
	chain, err := m.ToCTMC()
	if err != nil {
		t.Fatal(err)
	}
	cc, err := chain.Compile()
	if err != nil {
		t.Fatal(err)
	}
	occ, err := cc.Occupancy(map[string]float64{"4": 1}, 8760, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The structurally down states: no server ("0") and reconfiguration (y_i).
	up := func(s string) bool { return s != "0" && !strings.HasPrefix(s, "y") }
	reward := func(s string) float64 {
		if up(s) {
			return 1
		}
		return 0
	}
	wantSum := math.Float64bits(occ.SumOver(up))
	wantReward := math.Float64bits(occ.ExpectedReward(reward))
	for i := range 40 {
		if got := math.Float64bits(occ.SumOver(up)); got != wantSum {
			t.Fatalf("call %d: SumOver = %v, first call %v", i, math.Float64frombits(got), math.Float64frombits(wantSum))
		}
		if got := math.Float64bits(occ.ExpectedReward(reward)); got != wantReward {
			t.Fatalf("call %d: ExpectedReward = %v, first call %v", i, math.Float64frombits(got), math.Float64frombits(wantReward))
		}
	}
}
