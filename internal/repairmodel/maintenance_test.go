package repairmodel

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDedicatedRepairValidation(t *testing.T) {
	if _, err := (DedicatedRepair{Servers: 0, FailureRate: 1, RepairRate: 1}).StateProbabilities(); err == nil {
		t.Error("0 servers accepted")
	}
	if _, err := (DedicatedRepair{Servers: 2, FailureRate: -1, RepairRate: 1}).ToCTMC(); err == nil {
		t.Error("negative failure rate accepted")
	}
}

// With dedicated repair each server is independent, so the state
// distribution is binomial.
func TestDedicatedRepairBinomial(t *testing.T) {
	m := DedicatedRepair{Servers: 4, FailureRate: 0.2, RepairRate: 0.8}
	probs, err := m.StateProbabilities()
	if err != nil {
		t.Fatalf("StateProbabilities: %v", err)
	}
	const a = 0.8 // µ/(λ+µ)
	for i := 0; i <= 4; i++ {
		want := binomialCoeff(4, i) * math.Pow(a, float64(i)) * math.Pow(1-a, float64(4-i))
		if relDiff(probs[i], want) > 1e-12 {
			t.Errorf("π_%d = %v, want %v", i, probs[i], want)
		}
	}
	var sum float64
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("Σπ = %v", sum)
	}
}

func TestDedicatedRepairMatchesCTMC(t *testing.T) {
	m := DedicatedRepair{Servers: 5, FailureRate: 1e-3, RepairRate: 0.5}
	probs, err := m.StateProbabilities()
	if err != nil {
		t.Fatalf("StateProbabilities: %v", err)
	}
	chain, err := m.ToCTMC()
	if err != nil {
		t.Fatalf("ToCTMC: %v", err)
	}
	cc, err := chain.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	dist, err := cc.SteadyState()
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	for i := 0; i <= m.Servers; i++ {
		got := dist.Probability(fmt.Sprintf("%d", i))
		if relDiff(probs[i], got) > 1e-9 {
			t.Errorf("state %d: closed form %v vs CTMC %v", i, probs[i], got)
		}
	}
}

// Dedicated repair strictly beats a single shared facility whenever more
// than one server can be down.
func TestDedicatedBeatsShared(t *testing.T) {
	shared := PerfectCoverage{Servers: 4, FailureRate: 0.1, RepairRate: 0.5}
	dedicated := DedicatedRepair{Servers: 4, FailureRate: 0.1, RepairRate: 0.5}
	sp, err := shared.StateProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	dp, err := dedicated.StateProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	// Compare probability of full strength and of total outage.
	if !(dp[4] > sp[4]) {
		t.Errorf("π_N: dedicated %v should beat shared %v", dp[4], sp[4])
	}
	if !(dp[0] < sp[0]) {
		t.Errorf("π_0: dedicated %v should beat shared %v", dp[0], sp[0])
	}
}

func TestDeferredRepairValidation(t *testing.T) {
	base := DeferredRepair{Servers: 4, FailureRate: 1e-3, RepairRate: 1, Threshold: 2}
	bad := []DeferredRepair{
		{Servers: 4, FailureRate: 1e-3, RepairRate: 1, Threshold: 0},
		{Servers: 4, FailureRate: 1e-3, RepairRate: 1, Threshold: 5},
		{Servers: 0, FailureRate: 1e-3, RepairRate: 1, Threshold: 1},
	}
	for _, m := range bad {
		if _, err := m.StateProbabilities(); err == nil {
			t.Errorf("%+v accepted", m)
		}
	}
	if _, err := base.StateProbabilities(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

// Threshold 1 must reproduce the immediate-maintenance Figure 9 model.
func TestDeferredThresholdOneIsImmediate(t *testing.T) {
	deferred := DeferredRepair{Servers: 4, FailureRate: 1e-2, RepairRate: 1, Threshold: 1}
	immediate := PerfectCoverage{Servers: 4, FailureRate: 1e-2, RepairRate: 1}
	dp, err := deferred.StateProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	ip, err := immediate.StateProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 4; i++ {
		if relDiff(dp[i], ip[i]) > 1e-9 {
			t.Errorf("π_%d: deferred(1) %v vs immediate %v", i, dp[i], ip[i])
		}
	}
}

// Deferring maintenance can only hurt the expected number of operational
// servers, monotonically in the threshold.
func TestDeferredMonotoneInThreshold(t *testing.T) {
	expect := func(threshold int) float64 {
		m := DeferredRepair{Servers: 5, FailureRate: 0.05, RepairRate: 1, Threshold: threshold}
		probs, err := m.StateProbabilities()
		if err != nil {
			t.Fatalf("StateProbabilities: %v", err)
		}
		var e float64
		for i, p := range probs {
			e += float64(i) * p
		}
		return e
	}
	prev := math.Inf(1)
	for threshold := 1; threshold <= 5; threshold++ {
		e := expect(threshold)
		if e > prev+1e-12 {
			t.Errorf("E[servers] rose from %v to %v at threshold %d", prev, e, threshold)
		}
		prev = e
	}
}

// Property: the deferred-repair marginal distribution is a valid
// probability vector for random parameters.
func TestDeferredDistributionProperty(t *testing.T) {
	f := func(rawN, rawT, rawL uint8) bool {
		n := 2 + int(rawN%6)
		threshold := 1 + int(rawT)%n
		lambda := 0.001 + float64(rawL%100)/100
		m := DeferredRepair{Servers: n, FailureRate: lambda, RepairRate: 1, Threshold: threshold}
		probs, err := m.StateProbabilities()
		if err != nil {
			return false
		}
		var sum float64
		for _, p := range probs {
			if p < -1e-12 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// The stable MTTF recursion must agree with the generic hitting-time solver
// in the well-conditioned regime, and stay positive/monotone far beyond it.
func TestMeanTimeToFailure(t *testing.T) {
	// Small case, cross-check against the CTMC hitting-time solve.
	m := PerfectCoverage{Servers: 3, FailureRate: 0.1, RepairRate: 1}
	closed, err := m.MeanTimeToFailure()
	if err != nil {
		t.Fatalf("MeanTimeToFailure: %v", err)
	}
	chain, err := m.ToCTMC()
	if err != nil {
		t.Fatalf("ToCTMC: %v", err)
	}
	cc, err := chain.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	times, err := cc.MeanTimeToAbsorption("0")
	if err != nil {
		t.Fatalf("MeanTimeToAbsorption: %v", err)
	}
	if relDiff(closed, times["3"]) > 1e-9 {
		t.Errorf("recursion %v vs solver %v", closed, times["3"])
	}
	// Single server: MTTF = 1/λ.
	one := PerfectCoverage{Servers: 1, FailureRate: 2e-3, RepairRate: 1}
	mttf, err := one.MeanTimeToFailure()
	if err != nil {
		t.Fatalf("MeanTimeToFailure: %v", err)
	}
	if relDiff(mttf, 500) > 1e-12 {
		t.Errorf("MTTF = %v, want 500", mttf)
	}
	// Stiff regime where the linear solve fails: must stay positive and
	// strictly increasing in N.
	prev := 0.0
	for n := 1; n <= 12; n++ {
		m := PerfectCoverage{Servers: n, FailureRate: 1e-3, RepairRate: 1}
		v, err := m.MeanTimeToFailure()
		if err != nil {
			t.Fatalf("MeanTimeToFailure(N=%d): %v", n, err)
		}
		if v <= prev {
			t.Errorf("MTTF(N=%d) = %v not increasing past %v", n, v, prev)
		}
		prev = v
	}
	if _, err := (PerfectCoverage{Servers: 0, FailureRate: 1, RepairRate: 1}).MeanTimeToFailure(); err == nil {
		t.Error("invalid model accepted")
	}
}
