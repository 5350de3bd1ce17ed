// Package repairmodel implements the two Markov availability models of the
// web-server farm used in the travel-agency paper (§4.1.2, Figures 9 and 10):
//
//   - PerfectCoverage: N identical servers, per-server failure rate λ, a
//     shared repair facility with rate µ, and automatic (always successful)
//     reconfiguration. States are 0..N operational servers; the steady-state
//     probabilities are the paper's equation (4).
//
//   - ImperfectCoverage: as above, but a failure in state i is covered with
//     probability c (automatic reconfiguration to i−1) and uncovered with
//     probability 1−c, in which case the whole web service goes down into a
//     state y_i requiring manual reconfiguration (rate β) before resuming
//     with i−1 servers. The steady-state probabilities are the paper's
//     equations (6)–(8).
//
// Note on equation ranges: the paper's printed equations (7)–(9) show the
// down states y_i indexed "i = 1, …, N_W−2"; solving the Figure 10 chain
// exactly — and matching the paper's own printed A(WS) = 0.999995587 for
// N_W = 4 — shows the states exist for i = 1..N_W. This package uses the
// derived range, and its closed forms are cross-validated in tests against
// the CTMC solver on the Figure 10 chain.
//
// All closed forms are evaluated in log space relative to the largest term,
// so the enormous ratios µ/λ (10⁴ and beyond) used in the paper's sensitivity
// analyses cannot overflow the normalization constant.
package repairmodel

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ctmc"
)

// ErrParam is returned for invalid model parameters.
var ErrParam = errors.New("repairmodel: invalid parameter")

// PerfectCoverage is the Figure 9 model.
type PerfectCoverage struct {
	Servers     int     // N_W ≥ 1
	FailureRate float64 // λ > 0, per server
	RepairRate  float64 // µ > 0, shared repair facility
}

func (m PerfectCoverage) check() error {
	if m.Servers < 1 {
		return fmt.Errorf("%w: servers %d", ErrParam, m.Servers)
	}
	if m.FailureRate <= 0 || math.IsNaN(m.FailureRate) || math.IsInf(m.FailureRate, 0) {
		return fmt.Errorf("%w: failure rate %v", ErrParam, m.FailureRate)
	}
	if m.RepairRate <= 0 || math.IsNaN(m.RepairRate) || math.IsInf(m.RepairRate, 0) {
		return fmt.Errorf("%w: repair rate %v", ErrParam, m.RepairRate)
	}
	return nil
}

// StateProbabilities returns the steady-state probabilities π_0..π_N of
// having i operational servers (paper equation 4):
//
//	π_i = (1/i!)·(µ/λ)^i·π_0.
func (m PerfectCoverage) StateProbabilities() ([]float64, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	logRatio := math.Log(m.RepairRate) - math.Log(m.FailureRate)
	logs := make([]float64, m.Servers+1)
	for i := 1; i <= m.Servers; i++ {
		logs[i] = float64(i)*logRatio - logFactorial(i)
	}
	return normalizeLogs(logs), nil
}

// ToCTMC builds the Figure 9 chain for cross-validation with the CTMC
// solver. States are named "0".."N".
func (m PerfectCoverage) ToCTMC() (*ctmc.Chain, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	c := ctmc.New()
	for i := m.Servers; i >= 1; i-- {
		// i operational servers fail with total rate iλ; a single shared
		// repair facility restores one server at rate µ.
		if err := c.AddTransition(stateName(i), stateName(i-1), float64(i)*m.FailureRate); err != nil {
			return nil, err
		}
		if err := c.AddTransition(stateName(i-1), stateName(i), m.RepairRate); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// MeanTimeToFailure returns the expected time from full strength until all
// servers are down (the only outage state under perfect coverage).
//
// The Figure 9 chain is a birth–death process, so the hitting time follows
// the stable downward recursion
//
//	t_N = 1/(N·λ),   t_i = (1 + µ·t_{i+1}) / (i·λ),   MTTF = Σ t_i,
//
// where t_i is the expected time to go from i to i−1 operational servers.
// The recursion involves only additions and multiplications of positive
// numbers, so it remains accurate where a general linear solve loses all
// precision (MTTF values reach 1e19 hours and beyond for large farms).
func (m PerfectCoverage) MeanTimeToFailure() (float64, error) {
	if err := m.check(); err != nil {
		return 0, err
	}
	var total float64
	t := 1 / (float64(m.Servers) * m.FailureRate) // t_N
	total = t
	for i := m.Servers - 1; i >= 1; i-- {
		t = (1 + m.RepairRate*t) / (float64(i) * m.FailureRate)
		total += t
	}
	return total, nil
}

// ImperfectCoverage is the Figure 10 model.
type ImperfectCoverage struct {
	Servers      int     // N_W ≥ 1
	FailureRate  float64 // λ > 0, per server
	RepairRate   float64 // µ > 0, shared repair facility
	Coverage     float64 // c ∈ (0, 1]
	ReconfigRate float64 // β > 0, manual reconfiguration out of y_i
}

func (m ImperfectCoverage) check() error {
	base := PerfectCoverage{Servers: m.Servers, FailureRate: m.FailureRate, RepairRate: m.RepairRate}
	if err := base.check(); err != nil {
		return err
	}
	if m.Coverage <= 0 || m.Coverage > 1 || math.IsNaN(m.Coverage) {
		return fmt.Errorf("%w: coverage %v", ErrParam, m.Coverage)
	}
	if m.ReconfigRate <= 0 || math.IsNaN(m.ReconfigRate) || math.IsInf(m.ReconfigRate, 0) {
		return fmt.Errorf("%w: reconfiguration rate %v", ErrParam, m.ReconfigRate)
	}
	return nil
}

// StateProbs holds the steady-state solution of the Figure 10 model.
type StateProbs struct {
	// Operational[i] is the probability of state i (i operational servers,
	// web service up unless i == 0), for i = 0..N.
	Operational []float64
	// Reconfig[i] is the probability of down state y_i (entered from state i
	// by an uncovered failure, awaiting manual reconfiguration), for
	// i = 1..N; Reconfig[0] is unused and zero.
	Reconfig []float64
}

// DownProbability returns the total probability of the web service being
// down due to failures: state 0 plus all reconfiguration states.
func (p StateProbs) DownProbability() float64 {
	down := p.Operational[0]
	for _, y := range p.Reconfig {
		down += y
	}
	return down
}

// StateProbabilities returns the steady-state probabilities of the Figure 10
// chain using the paper's closed forms (equations 6–8, with the corrected
// y-state range i = 1..N):
//
//	π_i   = (1/i!)·(µ/λ)^i·π_0
//	π_y_i = [µ(1−c)/(β·(i−1)!)]·(µ/λ)^{i−1}·π_0
func (m ImperfectCoverage) StateProbabilities() (StateProbs, error) {
	if err := m.check(); err != nil {
		return StateProbs{}, err
	}
	n := m.Servers
	logRatio := math.Log(m.RepairRate) - math.Log(m.FailureRate)

	// Unnormalized log-probabilities; reconfiguration states come after the
	// operational states in one list so a single normalization covers both.
	logs := make([]float64, 0, 2*n+1)
	for i := 0; i <= n; i++ {
		logs = append(logs, float64(i)*logRatio-logFactorial(i))
	}
	yCount := 0
	if m.Coverage < 1 {
		// log π̃_y_i = log(µ(1−c)/β) − log (i−1)! + (i−1)·logRatio
		logFactor := math.Log(m.RepairRate) + math.Log1p(-m.Coverage) - math.Log(m.ReconfigRate)
		for i := 1; i <= n; i++ {
			logs = append(logs, logFactor-logFactorial(i-1)+float64(i-1)*logRatio)
		}
		yCount = n
	}
	probs := normalizeLogs(logs)

	out := StateProbs{
		Operational: make([]float64, n+1),
		Reconfig:    make([]float64, n+1),
	}
	copy(out.Operational, probs[:n+1])
	for i := 1; i <= yCount; i++ {
		out.Reconfig[i] = probs[n+i]
	}
	return out, nil
}

// ToCTMC builds the Figure 10 chain for cross-validation. Operational states
// are named "0".."N" and reconfiguration states "y1".."yN". With perfect
// coverage (c = 1) the chain degenerates to the Figure 9 chain.
func (m ImperfectCoverage) ToCTMC() (*ctmc.Chain, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	c := ctmc.New()
	for i := m.Servers; i >= 1; i-- {
		covered := float64(i) * m.Coverage * m.FailureRate
		if err := c.AddTransition(stateName(i), stateName(i-1), covered); err != nil {
			return nil, err
		}
		if m.Coverage < 1 {
			uncovered := float64(i) * (1 - m.Coverage) * m.FailureRate
			y := fmt.Sprintf("y%d", i)
			if err := c.AddTransition(stateName(i), y, uncovered); err != nil {
				return nil, err
			}
			if err := c.AddTransition(y, stateName(i-1), m.ReconfigRate); err != nil {
				return nil, err
			}
		}
		if err := c.AddTransition(stateName(i-1), stateName(i), m.RepairRate); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func stateName(i int) string { return fmt.Sprintf("%d", i) }

func logFactorial(n int) float64 {
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg
}

// normalizeLogs exponentiates log-weights relative to their maximum and
// normalizes to a probability vector. The input slice is overwritten and
// returned (each position is read exactly once before being written), saving
// an allocation on every repair-model solve.
func normalizeLogs(logs []float64) []float64 {
	maxLog := logs[0]
	for _, l := range logs {
		if l > maxLog {
			maxLog = l
		}
	}
	var sum float64
	for i, l := range logs {
		logs[i] = math.Exp(l - maxLog)
		sum += logs[i]
	}
	for i := range logs {
		logs[i] /= sum
	}
	return logs
}
