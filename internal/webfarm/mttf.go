package webfarm

import (
	"fmt"

	"repro/internal/repairmodel"
)

// MeanTimeToOutage returns the expected time (in the failure-rate time
// unit, hours in the paper's parameterization) until the web service first
// becomes structurally unavailable — all servers down, or a manual
// reconfiguration in progress — starting from full strength. Buffer losses
// are performance degradation, not outages, and do not end the horizon.
//
// The value is computed as a mean hitting time on the Figure 9/10 chain
// with the down states made absorbing.
func (f Farm) MeanTimeToOutage() (float64, error) {
	if err := f.check(); err != nil {
		return 0, err
	}
	if f.Coverage == 1 {
		// Use the closed birth–death recursion: the generic linear solve
		// loses all precision once the MTTF exceeds ~1e15 time units.
		m := repairmodel.PerfectCoverage{
			Servers: f.Servers, FailureRate: f.FailureRate, RepairRate: f.RepairRate,
		}
		return m.MeanTimeToFailure()
	}
	m := repairmodel.ImperfectCoverage{
		Servers: f.Servers, FailureRate: f.FailureRate, RepairRate: f.RepairRate,
		Coverage: f.Coverage, ReconfigRate: f.ReconfigRate,
	}
	chain, err := m.ToCTMC()
	if err != nil {
		return 0, err
	}
	cc, err := chain.Compile()
	if err != nil {
		return 0, err
	}
	targets := []string{"0"}
	for i := 1; i <= f.Servers; i++ {
		targets = append(targets, fmt.Sprintf("y%d", i))
	}
	times, err := cc.MeanTimeToAbsorption(targets...)
	if err != nil {
		return 0, err
	}
	full := fmt.Sprintf("%d", f.Servers)
	mttf, ok := times[full]
	if !ok {
		return 0, fmt.Errorf("webfarm: no hitting time for state %q", full)
	}
	return mttf, nil
}
