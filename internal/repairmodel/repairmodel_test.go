package repairmodel

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/queueing"
)

func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func TestPerfectCoverageValidation(t *testing.T) {
	bad := []PerfectCoverage{
		{Servers: 0, FailureRate: 1, RepairRate: 1},
		{Servers: 2, FailureRate: 0, RepairRate: 1},
		{Servers: 2, FailureRate: 1, RepairRate: -1},
		{Servers: 2, FailureRate: math.NaN(), RepairRate: 1},
	}
	for _, m := range bad {
		if _, err := m.StateProbabilities(); err == nil {
			t.Errorf("%+v accepted", m)
		}
		if _, err := m.ToCTMC(); err == nil {
			t.Errorf("ToCTMC %+v accepted", m)
		}
	}
}

func TestPerfectCoverageSingleServer(t *testing.T) {
	// One server: classic two-state availability µ/(λ+µ).
	m := PerfectCoverage{Servers: 1, FailureRate: 1e-3, RepairRate: 1}
	pi, err := m.StateProbabilities()
	if err != nil {
		t.Fatalf("StateProbabilities: %v", err)
	}
	want := 1.0 / (1 + 1e-3)
	if relDiff(pi[1], want) > 1e-12 {
		t.Errorf("π_1 = %v, want %v", pi[1], want)
	}
}

// Equation (4) closed form must agree with a direct birth–death solution of
// the same chain (birth = µ, death from i+1 = (i+1)·λ).
func TestPerfectCoverageMatchesBirthDeath(t *testing.T) {
	for _, n := range []int{1, 2, 4, 10} {
		m := PerfectCoverage{Servers: n, FailureRate: 1e-4, RepairRate: 1}
		pi, err := m.StateProbabilities()
		if err != nil {
			t.Fatalf("StateProbabilities: %v", err)
		}
		birth := make([]float64, n)
		death := make([]float64, n)
		for i := 0; i < n; i++ {
			birth[i] = m.RepairRate
			death[i] = float64(i+1) * m.FailureRate
		}
		bd, err := queueing.BirthDeath(birth, death)
		if err != nil {
			t.Fatalf("BirthDeath: %v", err)
		}
		for i := 0; i <= n; i++ {
			if relDiff(pi[i], bd[i]) > 1e-10 {
				t.Errorf("N=%d state %d: closed form %v vs birth–death %v", n, i, pi[i], bd[i])
			}
		}
	}
}

func TestPerfectCoverageMatchesCTMC(t *testing.T) {
	m := PerfectCoverage{Servers: 4, FailureRate: 1e-2, RepairRate: 1}
	pi, err := m.StateProbabilities()
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
		if relDiff(pi[i], got) > 1e-9 {
			t.Errorf("state %d: closed form %v vs CTMC %v", i, pi[i], got)
		}
	}
}

func TestImperfectCoverageValidation(t *testing.T) {
	bad := []ImperfectCoverage{
		{Servers: 2, FailureRate: 1, RepairRate: 1, Coverage: 0, ReconfigRate: 12},
		{Servers: 2, FailureRate: 1, RepairRate: 1, Coverage: 1.5, ReconfigRate: 12},
		{Servers: 2, FailureRate: 1, RepairRate: 1, Coverage: 0.9, ReconfigRate: 0},
		{Servers: 0, FailureRate: 1, RepairRate: 1, Coverage: 0.9, ReconfigRate: 12},
	}
	for _, m := range bad {
		if _, err := m.StateProbabilities(); err == nil {
			t.Errorf("%+v accepted", m)
		}
	}
}

// With c = 1 the Figure 10 model must reduce exactly to the Figure 9 model.
func TestImperfectReducesToPerfect(t *testing.T) {
	im := ImperfectCoverage{Servers: 5, FailureRate: 1e-3, RepairRate: 1, Coverage: 1, ReconfigRate: 12}
	pf := PerfectCoverage{Servers: 5, FailureRate: 1e-3, RepairRate: 1}
	ip, err := im.StateProbabilities()
	if err != nil {
		t.Fatalf("imperfect StateProbabilities: %v", err)
	}
	pp, err := pf.StateProbabilities()
	if err != nil {
		t.Fatalf("perfect StateProbabilities: %v", err)
	}
	for i := 0; i <= 5; i++ {
		if relDiff(ip.Operational[i], pp[i]) > 1e-12 {
			t.Errorf("state %d: %v vs %v", i, ip.Operational[i], pp[i])
		}
		if ip.Reconfig[i] != 0 {
			t.Errorf("Reconfig[%d] = %v, want 0 at c=1", i, ip.Reconfig[i])
		}
	}
}

// The closed forms (equations 6–8) must agree with the generic CTMC solver
// on the Figure 10 chain, including at the paper's operating point.
func TestImperfectCoverageMatchesCTMC(t *testing.T) {
	models := []ImperfectCoverage{
		{Servers: 4, FailureRate: 1e-4, RepairRate: 1, Coverage: 0.98, ReconfigRate: 12},
		{Servers: 2, FailureRate: 1e-2, RepairRate: 1, Coverage: 0.9, ReconfigRate: 12},
		{Servers: 10, FailureRate: 1e-3, RepairRate: 1, Coverage: 0.98, ReconfigRate: 12},
		{Servers: 1, FailureRate: 1e-2, RepairRate: 1, Coverage: 0.5, ReconfigRate: 3},
	}
	for _, m := range models {
		probs, err := m.StateProbabilities()
		if err != nil {
			t.Fatalf("StateProbabilities(%+v): %v", m, err)
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
			if relDiff(probs.Operational[i], got) > 1e-9 {
				t.Errorf("%+v state %d: closed form %v vs CTMC %v", m, i, probs.Operational[i], got)
			}
		}
		for i := 1; i <= m.Servers; i++ {
			got := dist.Probability(fmt.Sprintf("y%d", i))
			if relDiff(probs.Reconfig[i], got) > 1e-9 {
				t.Errorf("%+v state y%d: closed form %v vs CTMC %v", m, i, probs.Reconfig[i], got)
			}
		}
	}
}

// Paper anchor: at the Table 7 operating point (N=4, λ=1e-4/h, µ=1/h,
// c=0.98, β=12/h) the y-state mass is ≈ 2.778e8/4.1683e14 relative terms;
// verify the dominant ratios hand-computed from equations (6)–(7).
func TestImperfectCoveragePaperPoint(t *testing.T) {
	m := ImperfectCoverage{Servers: 4, FailureRate: 1e-4, RepairRate: 1, Coverage: 0.98, ReconfigRate: 12}
	probs, err := m.StateProbabilities()
	if err != nil {
		t.Fatalf("StateProbabilities: %v", err)
	}
	// π_y4/π_4 = 4(1−c)λ/β.
	wantRatio := 4 * 0.02 * 1e-4 / 12
	if got := probs.Reconfig[4] / probs.Operational[4]; relDiff(got, wantRatio) > 1e-9 {
		t.Errorf("π_y4/π_4 = %v, want %v", got, wantRatio)
	}
	// π_3/π_4 = 4!/(3!)·(λ/µ) = 4·1e-4.
	if got := probs.Operational[3] / probs.Operational[4]; relDiff(got, 4e-4) > 1e-9 {
		t.Errorf("π_3/π_4 = %v, want 4e-4", got)
	}
	// Down probability is tiny but positive.
	down := probs.DownProbability()
	if down <= 0 || down > 1e-6 {
		t.Errorf("down probability = %v", down)
	}
}

// Property: state probabilities are a valid distribution and the down
// probability increases as coverage decreases.
func TestCoverageMonotonicityProperty(t *testing.T) {
	f := func(rawN, rawC uint8) bool {
		n := 1 + int(rawN%8)
		c1 := 0.90 + float64(rawC%10)/100 // 0.90..0.99
		c2 := c1 - 0.05
		mk := func(c float64) (StateProbs, error) {
			return ImperfectCoverage{
				Servers: n, FailureRate: 1e-3, RepairRate: 1,
				Coverage: c, ReconfigRate: 12,
			}.StateProbabilities()
		}
		p1, err := mk(c1)
		if err != nil {
			return false
		}
		p2, err := mk(c2)
		if err != nil {
			return false
		}
		var sum float64
		for _, p := range p1.Operational {
			if p < 0 {
				return false
			}
			sum += p
		}
		for _, p := range p1.Reconfig {
			if p < 0 {
				return false
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			return false
		}
		// Lower coverage ⇒ more mass in down states.
		return p2.DownProbability() >= p1.DownProbability()-1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestExtremeRatioStability(t *testing.T) {
	// µ/λ = 1e8 with 20 servers: naive products reach 1e160/20!; the
	// log-space closed form must stay finite and normalized.
	m := ImperfectCoverage{Servers: 20, FailureRate: 1e-8, RepairRate: 1, Coverage: 0.98, ReconfigRate: 12}
	probs, err := m.StateProbabilities()
	if err != nil {
		t.Fatalf("StateProbabilities: %v", err)
	}
	var sum float64
	for _, p := range probs.Operational {
		sum += p
	}
	for _, p := range probs.Reconfig {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("Σπ = %v", sum)
	}
	if probs.Operational[20] < 0.999 {
		t.Errorf("π_N = %v, want ≈ 1", probs.Operational[20])
	}
}
