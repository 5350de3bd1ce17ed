package ctmc

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// This file holds the generic solvers over the map-based Chain: GTH and LU
// steady state, uniformization, accumulated reward, mean time to absorption,
// and the exit-rate and irreducibility helpers they share, plus the compiled
// LU kernel, GTH's independent cross-check. Production code solves through
// Compile; the tests, FuzzCompiledCTMC and FuzzCompiledReward check the
// compiled kernels against these references.

// Generator returns the infinitesimal generator matrix Q, where
// Q[i][j] = rate(i→j) for i ≠ j and Q[i][i] = -Σ_j rate(i→j).
func (c *Chain) Generator() (*linalg.Matrix, error) {
	n := len(c.names)
	if n == 0 {
		return nil, ErrEmpty
	}
	q := linalg.NewMatrix(n, n)
	for i, row := range c.rates {
		var exit float64
		for j, r := range row {
			q.Set(i, j, r)
			exit += r
		}
		q.Set(i, i, -exit)
	}
	return q, nil
}

// isIrreducible reports whether every state can reach every other state
// (strong connectivity of the transition graph).
func (c *Chain) isIrreducible() bool {
	n := len(c.names)
	if n == 0 {
		return false
	}
	if n == 1 {
		return true
	}
	reach := func(start int, forward bool) int {
		seen := make([]bool, n)
		stack := []int{start}
		seen[start] = true
		count := 1
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for w := 0; w < n; w++ {
				var connected bool
				if forward {
					connected = c.rates[v][w] > 0
				} else {
					connected = c.rates[w][v] > 0
				}
				if connected && !seen[w] {
					seen[w] = true
					count++
					stack = append(stack, w)
				}
			}
		}
		return count
	}
	return reach(0, true) == n && reach(0, false) == n
}

func (c *Chain) toDistribution(pi []float64) Distribution {
	d := make(Distribution, len(pi))
	for i, p := range pi {
		d[c.names[i]] = p
	}
	return d
}

// SteadyState computes the stationary distribution π of an irreducible chain
// using the Grassmann–Taksar–Heyman (GTH) elimination algorithm, which avoids
// subtractive cancellation and is therefore accurate even when transition
// rates span many orders of magnitude (e.g. repair rate 1/h vs. failure rate
// 1e-4/h as in the travel-agency models).
func (c *Chain) SteadyState() (Distribution, error) {
	pi, err := c.steadyStateVector()
	if err != nil {
		return nil, err
	}
	return c.toDistribution(pi), nil
}

func (c *Chain) steadyStateVector() ([]float64, error) {
	n := len(c.names)
	if n == 0 {
		return nil, ErrEmpty
	}
	if n == 1 {
		return []float64{1}, nil
	}
	if !c.isIrreducible() {
		return nil, ErrNotIrreducible
	}

	// Work on a dense copy of the rate matrix (off-diagonal rates only).
	a := linalg.NewMatrix(n, n)
	for i, row := range c.rates {
		for j, r := range row {
			a.Set(i, j, r)
		}
	}

	// GTH elimination: for k = n-1 down to 1, redistribute state k's
	// probability flow over states 0..k-1. Only additions, multiplications
	// and divisions by positive numbers occur.
	for k := n - 1; k >= 1; k-- {
		var total float64
		for j := 0; j < k; j++ {
			total += a.At(k, j)
		}
		if total <= 0 {
			return nil, fmt.Errorf("%w: state %q has no transitions to lower-numbered states during GTH elimination", ErrNotIrreducible, c.names[k])
		}
		for i := 0; i < k; i++ {
			rateIK := a.At(i, k)
			if rateIK == 0 {
				continue
			}
			f := rateIK / total
			for j := 0; j < k; j++ {
				if v := a.At(k, j); v != 0 {
					a.Add(i, j, f*v)
				}
			}
		}
	}

	// Back substitution: π₀ unnormalized = 1; πₖ = Σ_{i<k} πᵢ·a(i,k)/total(k).
	pi := make([]float64, n)
	pi[0] = 1
	for k := 1; k < n; k++ {
		var total float64
		for j := 0; j < k; j++ {
			total += a.At(k, j)
		}
		var num float64
		for i := 0; i < k; i++ {
			num += pi[i] * a.At(i, k)
		}
		pi[k] = num / total
	}
	if _, err := linalg.Normalize(pi); err != nil {
		return nil, fmt.Errorf("ctmc: normalize steady state: %w", err)
	}
	if !linalg.AllFinite(pi) {
		return nil, fmt.Errorf("ctmc: steady state contains non-finite probabilities")
	}
	return pi, nil
}

// SteadyStateLU computes the stationary distribution by directly solving
// πQ = 0 with the normalization Σπ = 1 via LU factorization. It is provided
// as an independent cross-check of the GTH path; GTH should be preferred for
// stiff chains.
func (c *Chain) SteadyStateLU() (Distribution, error) {
	n := len(c.names)
	if n == 0 {
		return nil, ErrEmpty
	}
	if !c.isIrreducible() {
		return nil, ErrNotIrreducible
	}
	q, err := c.Generator()
	if err != nil {
		return nil, err
	}
	// Solve Qᵀπ = 0 with the last equation replaced by Σπ = 1.
	a := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(j, i, q.At(i, j))
		}
	}
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	b := make([]float64, n)
	b[n-1] = 1
	pi, err := linalg.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("ctmc: steady-state solve: %w", err)
	}
	// Clamp tiny negative round-off.
	for i, p := range pi {
		if p < 0 {
			if p < -1e-9 {
				return nil, fmt.Errorf("ctmc: steady-state probability %v for state %q is negative beyond round-off", p, c.names[i])
			}
			pi[i] = 0
		}
	}
	if _, err := linalg.Normalize(pi); err != nil {
		return nil, err
	}
	return c.toDistribution(pi), nil
}

// Transient computes the state distribution at time t, starting from the
// given initial distribution, using uniformization (randomization / Jensen's
// method) with adaptive truncation of the Poisson series.
//
// The tolerance bounds the total truncated probability mass; 1e-12 is a good
// default. Initial states absent from `initial` have probability zero.
func (c *Chain) Transient(initial Distribution, t float64, tol float64) (Distribution, error) {
	n := len(c.names)
	if n == 0 {
		return nil, ErrEmpty
	}
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("ctmc: invalid time %v", t)
	}
	if tol <= 0 {
		tol = 1e-12
	}
	p0 := make([]float64, n)
	var total float64
	for name, pr := range initial {
		i, err := c.StateIndex(name)
		if err != nil {
			return nil, err
		}
		if pr < 0 {
			return nil, fmt.Errorf("ctmc: negative initial probability %v for %q", pr, name)
		}
		p0[i] = pr
		total += pr
	}
	if math.Abs(total-1) > 1e-9 {
		return nil, fmt.Errorf("ctmc: initial distribution sums to %v, want 1", total)
	}
	if t == 0 {
		return c.toDistribution(p0), nil
	}

	// Uniformization rate: strictly larger than every exit rate.
	var lambda float64
	for i := 0; i < n; i++ {
		if r := c.ExitRate(i); r > lambda {
			lambda = r
		}
	}
	if lambda == 0 {
		// No transitions at all: distribution is unchanged.
		return c.toDistribution(p0), nil
	}
	lambda *= 1.02

	// DTMC kernel P = I + Q/lambda, applied as vector-matrix products using
	// the sparse rate maps.
	applyP := func(v []float64) []float64 {
		out := make([]float64, n)
		for i, vi := range v {
			if vi == 0 {
				continue
			}
			exit := c.ExitRate(i)
			out[i] += vi * (1 - exit/lambda)
			for j, r := range c.rates[i] {
				out[j] += vi * r / lambda
			}
		}
		return out
	}

	// Poisson weights with scaling: accumulate Σ_k w_k · (p0·P^k).
	lt := lambda * t
	// Upper truncation point: mean + wide safety margin.
	kMax := int(lt + 12*math.Sqrt(lt) + 40)
	acc := make([]float64, n)
	v := p0
	logW := -lt // log of Poisson(k=0) weight
	sumW := 0.0
	for k := 0; ; k++ {
		w := math.Exp(logW)
		for i := range acc {
			acc[i] += w * v[i]
		}
		sumW += w
		if 1-sumW < tol && float64(k) >= lt {
			break
		}
		if k >= kMax {
			break
		}
		logW += math.Log(lt) - math.Log(float64(k+1))
		v = applyP(v)
	}
	// Renormalize the truncation defect.
	if sumW > 0 {
		for i := range acc {
			acc[i] /= sumW
		}
	}
	return c.toDistribution(acc), nil
}

// luWorkspace holds the matrix, factorization and right-hand side of the
// compiled LU kernel, reused across solves of the same size.
type luWorkspace struct {
	luA *linalg.Matrix
	lu  *linalg.LU
	b   []float64
}

// SteadyStateLU computes the stationary distribution by solving πQ = 0 with
// the normalization Σπ = 1 through the reusable-buffer LU path: an
// independent numeric cross-check of the GTH kernel that also exercises
// linalg's workspace reuse.
func (cc *Compiled) SteadyStateLU() (Distribution, error) {
	pi, err := cc.steadyStateLUInto(&luWorkspace{}, nil)
	if err != nil {
		return nil, err
	}
	return cc.Distribution(pi), nil
}

// steadyStateLUInto is the allocation-free body of SteadyStateLU: the matrix,
// factorization and right-hand side persist in ws.
func (cc *Compiled) steadyStateLUInto(ws *luWorkspace, dst []float64) ([]float64, error) {
	n := len(cc.names)
	if !cc.irreducible {
		return nil, ErrNotIrreducible
	}
	if ws.luA == nil || ws.luA.Rows() != n {
		ws.luA = linalg.NewMatrix(n, n)
		ws.lu = linalg.NewLU(n)
		ws.b = make([]float64, n)
	}
	// Build Qᵀ with the last equation replaced by Σπ = 1.
	a := ws.luA
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, 0)
		}
	}
	for i := 0; i < n; i++ {
		a.Set(i, i, -cc.exit[i])
		for idx := cc.rowPtr[i]; idx < cc.rowPtr[i+1]; idx++ {
			a.Set(cc.col[idx], i, cc.rate[idx])
		}
	}
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	for i := range ws.b {
		ws.b[i] = 0
	}
	ws.b[n-1] = 1
	if err := ws.lu.Refactor(a); err != nil {
		return nil, fmt.Errorf("ctmc: steady-state solve: %w", err)
	}
	pi := resize(dst, n)
	if err := ws.lu.SolveInto(pi, ws.b); err != nil {
		return nil, fmt.Errorf("ctmc: steady-state solve: %w", err)
	}
	// Clamp tiny negative round-off.
	for i, p := range pi {
		if p < 0 {
			if p < -1e-9 {
				return nil, fmt.Errorf("ctmc: steady-state probability %v for state %q is negative beyond round-off", p, cc.names[i])
			}
			pi[i] = 0
		}
	}
	if _, err := linalg.Normalize(pi); err != nil {
		return nil, err
	}
	return pi, nil
}

// ExitRate returns the total outgoing rate of state i. It sums in successor
// order, as Compile does: a sum in map order changes in the last bit from
// run to run, and the hitting-time solve of a stiff chain magnifies that
// bit to a relative error near 1e-6.
func (c *Chain) ExitRate(i int) float64 {
	var s float64
	for _, j := range c.successors(i) {
		s += c.rates[i][j]
	}
	return s
}

// ExpectedAccumulatedReward computes E[∫₀ᵗ r(X(s)) ds]: the expected reward
// accumulated over [0, t] when the chain starts from the given initial
// distribution and each state s earns reward rate r(s) while occupied.
//
// With r(s) = 1 on up states this is the expected up time in [0, t]; the
// complementary choice gives the expected downtime of a system's first
// year — the "hours per year" unit used throughout §5 of the paper, but as
// a transient (not steady-state) measure.
//
// The integral is evaluated by uniformization: with uniformization rate Λ
// and DTMC kernel P, ∫₀ᵗ π(s)ds = Σ_{k≥0} w_k(t)·(p₀Pᵏ), where
// w_k(t) = P(N(t) > k)/Λ and N(t) ~ Poisson(Λt). The truncation error is
// bounded by tol·t in reward units (for |r| ≤ max|r|, scaled accordingly).
func (c *Chain) ExpectedAccumulatedReward(initial Distribution, t float64, reward func(name string) float64, tol float64) (float64, error) {
	n := len(c.names)
	if n == 0 {
		return 0, ErrEmpty
	}
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return 0, fmt.Errorf("ctmc: invalid time %v", t)
	}
	if tol <= 0 {
		tol = 1e-10
	}
	p0 := make([]float64, n)
	var total float64
	for name, pr := range initial {
		i, err := c.StateIndex(name)
		if err != nil {
			return 0, err
		}
		if pr < 0 {
			return 0, fmt.Errorf("ctmc: negative initial probability %v for %q", pr, name)
		}
		p0[i] = pr
		total += pr
	}
	if math.Abs(total-1) > 1e-9 {
		return 0, fmt.Errorf("ctmc: initial distribution sums to %v, want 1", total)
	}
	rewards := make([]float64, n)
	for i, name := range c.names {
		r := reward(name)
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return 0, fmt.Errorf("ctmc: invalid reward %v for state %q", r, name)
		}
		rewards[i] = r
	}
	if t == 0 {
		return 0, nil
	}

	var lambda float64
	for i := 0; i < n; i++ {
		if r := c.ExitRate(i); r > lambda {
			lambda = r
		}
	}
	if lambda == 0 {
		// No transitions: reward accrues in the initial states forever.
		var acc float64
		for i, p := range p0 {
			acc += p * rewards[i] * t
		}
		return acc, nil
	}
	lambda *= 1.02

	applyP := func(v []float64) []float64 {
		out := make([]float64, n)
		for i, vi := range v {
			if vi == 0 {
				continue
			}
			exit := c.ExitRate(i)
			out[i] += vi * (1 - exit/lambda)
			for j, r := range c.rates[i] {
				out[j] += vi * r / lambda
			}
		}
		return out
	}

	// w_k = P(N(t) > k)/Λ: computed from the Poisson pmf cumulatively.
	lt := lambda * t
	kMax := int(lt + 12*math.Sqrt(lt) + 40)
	logPMF := -lt // log pmf(0)
	cdf := 0.0
	v := p0
	var acc float64
	for k := 0; ; k++ {
		pmf := math.Exp(logPMF)
		cdf += pmf
		w := (1 - cdf) / lambda
		if w < 0 {
			w = 0
		}
		var instant float64
		for i, vi := range v {
			instant += vi * rewards[i]
		}
		acc += w * instant
		if (1-cdf)*t < tol && float64(k) >= lt {
			break
		}
		if k >= kMax {
			break
		}
		logPMF += math.Log(lt) - math.Log(float64(k+1))
		v = applyP(v)
	}
	return acc, nil
}

// ExpectedUpTime returns the expected total time spent in the up states
// during [0, t].
func (c *Chain) ExpectedUpTime(initial Distribution, t float64, up func(name string) bool) (float64, error) {
	return c.ExpectedAccumulatedReward(initial, t, func(name string) float64 {
		if up(name) {
			return 1
		}
		return 0
	}, 0)
}

// IntervalAvailability returns the expected fraction of [0, t] spent in the
// up states — the interval availability of classical dependability theory.
func (c *Chain) IntervalAvailability(initial Distribution, t float64, up func(name string) bool) (float64, error) {
	if t <= 0 {
		return 0, fmt.Errorf("ctmc: interval availability needs t > 0, have %v", t)
	}
	upTime, err := c.ExpectedUpTime(initial, t, up)
	if err != nil {
		return 0, err
	}
	return upTime / t, nil
}

// MeanTimeToAbsorption computes, for a chain in which the given states are
// absorbing targets, the expected time to reach any of them from each
// transient state. Transitions out of target states are ignored. The result
// maps transient state names to expected hitting times; target states map
// to zero.
func (c *Chain) MeanTimeToAbsorption(targets ...string) (map[string]float64, error) {
	n := len(c.names)
	if n == 0 {
		return nil, ErrEmpty
	}
	isTarget := make([]bool, n)
	for _, t := range targets {
		i, err := c.StateIndex(t)
		if err != nil {
			return nil, err
		}
		isTarget[i] = true
	}
	// Transient states.
	var trans []int
	pos := make([]int, n)
	for i := 0; i < n; i++ {
		pos[i] = -1
		if !isTarget[i] {
			pos[i] = len(trans)
			trans = append(trans, i)
		}
	}
	out := make(map[string]float64, n)
	for _, t := range targets {
		out[t] = 0
	}
	if len(trans) == 0 {
		return out, nil
	}
	// Solve  Q_TT · h = -1  restricted to transient states.
	m := len(trans)
	a := linalg.NewMatrix(m, m)
	b := make([]float64, m)
	for r, i := range trans {
		exit := c.ExitRate(i)
		if exit == 0 {
			return nil, fmt.Errorf("ctmc: transient state %q cannot reach any target", c.names[i])
		}
		a.Set(r, r, -exit)
		for j, rate := range c.rates[i] {
			if !isTarget[j] {
				a.Add(r, pos[j], rate)
			}
		}
		b[r] = -1
	}
	h, err := linalg.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("ctmc: hitting-time solve: %w", err)
	}
	for r, i := range trans {
		if h[r] < 0 || math.IsNaN(h[r]) {
			return nil, fmt.Errorf("ctmc: invalid hitting time %v for state %q (target set unreachable?)", h[r], c.names[i])
		}
		out[c.names[i]] = h[r]
	}
	return out, nil
}
