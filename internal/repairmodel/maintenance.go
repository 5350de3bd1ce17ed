package repairmodel

import (
	"fmt"
	"math"

	"repro/internal/ctmc"
)

// The paper's §3.3 lists maintenance strategies as an architectural design
// axis: "immediate vs. deferred maintenance, dedicated vs. shared repair
// resources". PerfectCoverage/ImperfectCoverage model a *shared* repair
// facility with *immediate* maintenance; this file supplies the other two
// corners so the strategies can be compared quantitatively.

// DedicatedRepair is the Figure 9 model with one repair facility per
// server: with i servers operational, N−i repairs proceed in parallel, so
// the repair rate in state i is (N−i)·µ. Coverage is perfect.
type DedicatedRepair struct {
	Servers     int     // N ≥ 1
	FailureRate float64 // λ > 0, per server
	RepairRate  float64 // µ > 0, per failed server
}

func (m DedicatedRepair) check() error {
	return PerfectCoverage{Servers: m.Servers, FailureRate: m.FailureRate, RepairRate: m.RepairRate}.check()
}

// StateProbabilities returns π_0..π_N. With dedicated repair each server is
// an independent two-state component, so π_i is binomial:
// π_i = C(N,i)·a^i·(1−a)^{N−i} with a = µ/(λ+µ).
func (m DedicatedRepair) StateProbabilities() ([]float64, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	a := m.RepairRate / (m.FailureRate + m.RepairRate)
	out := make([]float64, m.Servers+1)
	for i := 0; i <= m.Servers; i++ {
		out[i] = binomialCoeff(m.Servers, i) * math.Pow(a, float64(i)) * math.Pow(1-a, float64(m.Servers-i))
	}
	return out, nil
}

// ToCTMC builds the birth–death chain (repair rate (N−i)·µ) for
// cross-validation against the binomial closed form.
func (m DedicatedRepair) ToCTMC() (*ctmc.Chain, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	c := ctmc.New()
	for i := m.Servers; i >= 1; i-- {
		if err := c.AddTransition(stateName(i), stateName(i-1), float64(i)*m.FailureRate); err != nil {
			return nil, err
		}
		repairers := float64(m.Servers - (i - 1)) // servers down in state i-1
		if err := c.AddTransition(stateName(i-1), stateName(i), repairers*m.RepairRate); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// DeferredRepair models deferred maintenance with hysteresis: no repair is
// performed until at least Threshold servers have failed; once maintenance
// is engaged, the (single, shared) repair facility keeps working at rate µ
// until every server is back up. Coverage is perfect.
//
// This captures the common "batch the repair visits" cost optimization; its
// availability penalty versus immediate maintenance is the quantity the
// taeval ablation reports.
type DeferredRepair struct {
	Servers     int     // N ≥ 1
	FailureRate float64 // λ > 0, per server
	RepairRate  float64 // µ > 0, shared facility once engaged
	Threshold   int     // engage maintenance when failed servers ≥ Threshold (≥ 1)
}

func (m DeferredRepair) check() error {
	if err := (PerfectCoverage{Servers: m.Servers, FailureRate: m.FailureRate, RepairRate: m.RepairRate}).check(); err != nil {
		return err
	}
	if m.Threshold < 1 || m.Threshold > m.Servers {
		return fmt.Errorf("%w: threshold %d with %d servers", ErrParam, m.Threshold, m.Servers)
	}
	return nil
}

// ToCTMC builds the hysteresis chain. States are named "i" (i operational,
// maintenance idle) and "i!r" (i operational, maintenance engaged).
// Threshold = 1 degenerates to the immediate-maintenance Figure 9 chain
// (modulo state naming).
func (m DeferredRepair) ToCTMC() (*ctmc.Chain, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	n := m.Servers
	c := ctmc.New()
	idle := func(i int) string { return stateName(i) }
	engaged := func(i int) string { return stateName(i) + "!r" }

	for i := n; i >= 1; i-- {
		failed := n - i // failed servers in state i
		// Failure transitions from idle states: engage maintenance when the
		// new failure count reaches the threshold.
		if failed < m.Threshold { // idle state exists for this i
			target := idle(i - 1)
			if n-(i-1) >= m.Threshold {
				target = engaged(i - 1)
			}
			if err := c.AddTransition(idle(i), target, float64(i)*m.FailureRate); err != nil {
				return nil, err
			}
		}
		// Engaged states: all i < N with failed ≥ 1... engaged(i) exists for
		// i = 0..N-1; failures continue during maintenance.
		if i <= n-1 {
			if err := c.AddTransition(engaged(i), engaged(i-1), float64(i)*m.FailureRate); err != nil {
				return nil, err
			}
		}
	}
	// Repairs: only in engaged states; completing the last repair returns
	// to the idle full-strength state.
	for i := 0; i <= n-1; i++ {
		target := engaged(i + 1)
		if i+1 == n {
			target = idle(n)
		}
		if err := c.AddTransition(engaged(i), target, m.RepairRate); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// StateProbabilities returns the marginal probabilities of having i
// operational servers (idle and engaged states combined), for i = 0..N.
func (m DeferredRepair) StateProbabilities() ([]float64, error) {
	chain, err := m.ToCTMC()
	if err != nil {
		return nil, err
	}
	cc, err := chain.Compile()
	if err != nil {
		return nil, err
	}
	dist, err := cc.SteadyState()
	if err != nil {
		return nil, err
	}
	out := make([]float64, m.Servers+1)
	for i := 0; i <= m.Servers; i++ {
		out[i] = dist.Probability(stateName(i)) + dist.Probability(stateName(i)+"!r")
	}
	return out, nil
}

// binomialCoeff returns C(n, k) as a float64.
func binomialCoeff(n, k int) float64 {
	lg1, _ := math.Lgamma(float64(n) + 1)
	lg2, _ := math.Lgamma(float64(k) + 1)
	lg3, _ := math.Lgamma(float64(n-k) + 1)
	return math.Round(math.Exp(lg1 - lg2 - lg3))
}
