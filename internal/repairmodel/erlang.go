package repairmodel

import (
	"fmt"

	"repro/internal/ctmc"
)

// ErlangRepair is the Figure 9 model with Erlang-k distributed repair times
// instead of exponential ones: each repair passes through Stages phases of
// rate Stages·µ, preserving the mean repair time 1/µ while reducing its
// variance by 1/Stages. Stages = 1 recovers PerfectCoverage exactly; large
// Stages approaches deterministic repair.
//
// The model probes the robustness of the paper's exponential-repair
// assumption. A classical insensitivity result says a *single* repairable
// component's steady-state availability depends on the repair distribution
// only through its mean — asserted in tests — while the shared-facility
// multi-server system is (mildly) sensitive.
type ErlangRepair struct {
	Servers     int     // N ≥ 1
	FailureRate float64 // λ per server
	RepairRate  float64 // µ: 1/mean repair time
	Stages      int     // k ≥ 1 Erlang phases
}

func (m ErlangRepair) check() error {
	if err := (PerfectCoverage{Servers: m.Servers, FailureRate: m.FailureRate, RepairRate: m.RepairRate}).check(); err != nil {
		return err
	}
	if m.Stages < 1 {
		return fmt.Errorf("%w: stages %d", ErrParam, m.Stages)
	}
	return nil
}

// ToCTMC builds the phase-expanded chain. States: "N" (all up, no repair);
// "i/p" for i < N operational servers with the ongoing repair in phase p
// (0-based). The shared facility repairs one server at a time.
func (m ErlangRepair) ToCTMC() (*ctmc.Chain, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	n := m.Servers
	k := m.Stages
	phaseRate := float64(k) * m.RepairRate
	c := ctmc.New()
	full := stateName(n)
	name := func(i, p int) string { return fmt.Sprintf("%d/%d", i, p) }

	// Failures.
	// From full strength: first failure starts a repair at phase 0.
	if err := c.AddTransition(full, name(n-1, 0), float64(n)*m.FailureRate); err != nil {
		return nil, err
	}
	for i := n - 1; i >= 1; i-- {
		for p := 0; p < k; p++ {
			// Further failures do not disturb the ongoing repair phase.
			if err := c.AddTransition(name(i, p), name(i-1, p), float64(i)*m.FailureRate); err != nil {
				return nil, err
			}
		}
	}
	// Repair phase progression and completion.
	for i := n - 1; i >= 0; i-- {
		for p := 0; p < k; p++ {
			var target string
			if p < k-1 {
				target = name(i, p+1)
			} else if i+1 == n {
				target = full
			} else {
				target = name(i+1, 0) // next repair starts immediately
			}
			if err := c.AddTransition(name(i, p), target, phaseRate); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// StateProbabilities returns the marginal steady-state probabilities of
// having i operational servers, i = 0..N, summed over repair phases.
func (m ErlangRepair) StateProbabilities() ([]float64, error) {
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
	out[m.Servers] = dist.Probability(stateName(m.Servers))
	for i := 0; i < m.Servers; i++ {
		for p := 0; p < m.Stages; p++ {
			out[i] += dist.Probability(fmt.Sprintf("%d/%d", i, p))
		}
	}
	return out, nil
}
