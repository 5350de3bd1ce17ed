package ctmc

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
)

// kernelCounters aggregates solver activity across every Compiled chain in
// the process: how many solves each kernel ran, how many matrix-vector
// products uniformization performed, and how often the cached Poisson terms
// were reused. The counters are atomic (one add per solve — negligible next
// to the solve itself) and exported through ReadKernelStats, which
// obs.RegisterKernels publishes as the kernel_ctmc_* series.
var kernelCounters struct {
	steadySolves    atomic.Int64
	transientSolves atomic.Int64
	uniformSteps    atomic.Int64
	poissonHits     atomic.Int64
	poissonMisses   atomic.Int64
	rateRefreshes   atomic.Int64
}

// KernelStats is a snapshot of the process-wide compiled-kernel counters.
type KernelStats struct {
	// SteadySolves counts GTH steady-state solves; TransientSolves counts
	// uniformization runs.
	SteadySolves    int64
	TransientSolves int64
	// UniformizationSteps counts sparse matrix-vector products across all
	// transient solves (the series length summed over solves).
	UniformizationSteps int64
	// PoissonCacheHits/Misses count reuse of the cached Poisson terms for a
	// repeated (rate·t, tolerance) pair. Hit rates depend on how workspaces
	// are pooled across goroutines, so they are diagnostics, not invariants.
	PoissonCacheHits   int64
	PoissonCacheMisses int64
	// RateRefreshes counts SetRate updates applied to compiled chains by
	// rate-only re-solve paths (frozen GSPN reachability graphs).
	RateRefreshes int64
}

// ReadKernelStats returns the current process-wide kernel counters.
func ReadKernelStats() KernelStats {
	return KernelStats{
		SteadySolves:        kernelCounters.steadySolves.Load(),
		TransientSolves:     kernelCounters.transientSolves.Load(),
		UniformizationSteps: kernelCounters.uniformSteps.Load(),
		PoissonCacheHits:    kernelCounters.poissonHits.Load(),
		PoissonCacheMisses:  kernelCounters.poissonMisses.Load(),
		RateRefreshes:       kernelCounters.rateRefreshes.Load(),
	}
}

// Compiled is a frozen, solver-ready snapshot of a Chain: integer states, a
// flat CSR (compressed sparse row) generator with deterministically sorted
// successors, precomputed exit rates, and a pool of reusable solver
// workspaces (GTH elimination scratch, uniformization ping-pong vectors,
// cached Poisson terms).
//
// A Compiled value is immutable and safe for concurrent use: every solve
// borrows a workspace from an internal pool, so parallel parameter sweeps
// share one compiled chain without locking or per-solve allocation of the
// large buffers. Compiling takes a snapshot — later mutations of the source
// Chain do not affect the compiled form.
//
// Compiled is the package's only solver: steady state, transient
// distribution, occupancy (accumulated reward) and mean time to absorption.
// Its kernels keep the arithmetic order of the generic reference solvers in
// reference_test.go: the GTH steady state is bit-identical to the reference,
// whose dense elimination does not depend on the sparse representation, and
// uniformization agrees to well below 1e-12.
type Compiled struct {
	names       []string
	index       map[string]int
	rowPtr      []int     // len n+1; row i occupies rowPtr[i]..rowPtr[i+1]
	col         []int     // successor state indices, sorted within each row
	rate        []float64 // transition rates aligned with col
	exit        []float64 // total exit rate per state
	maxExit     float64
	irreducible bool
	pool        sync.Pool // of *compiledWorkspace
}

// compiledWorkspace holds the per-solve scratch buffers. One workspace
// serves one solve at a time; the pool hands them out to concurrent callers.
type compiledWorkspace struct {
	dense []float64    // n×n GTH elimination scratch
	vec   [2][]float64 // uniformization ping-pong vectors
	// Cached Poisson terms: weights[0..terms-1] for rate·t = lt at tolerance
	// tol, with their running sum. Reused when a chain is probed repeatedly
	// at the same time point (interval-availability sweeps).
	weights []float64
	wsum    float64
	lt      float64
	tol     float64
}

// Compile freezes the chain into its solver-ready form. It returns ErrEmpty
// for a chain with no states. Irreducibility is analyzed once here, so the
// per-solve cost of the steady-state kernels is the elimination alone.
func (c *Chain) Compile() (*Compiled, error) {
	n := len(c.names)
	if n == 0 {
		return nil, ErrEmpty
	}
	cc := &Compiled{
		names:  append([]string(nil), c.names...),
		index:  make(map[string]int, n),
		rowPtr: make([]int, n+1),
		exit:   make([]float64, n),
	}
	for i, name := range cc.names {
		cc.index[name] = i
	}
	var nnz int
	for _, row := range c.rates {
		nnz += len(row)
	}
	cc.col = make([]int, 0, nnz)
	cc.rate = make([]float64, 0, nnz)
	for i := 0; i < n; i++ {
		cc.rowPtr[i] = len(cc.col)
		var exit float64
		for _, j := range c.successors(i) {
			r := c.rates[i][j]
			cc.col = append(cc.col, j)
			cc.rate = append(cc.rate, r)
			exit += r
		}
		cc.exit[i] = exit
		if exit > cc.maxExit {
			cc.maxExit = exit
		}
	}
	cc.rowPtr[n] = len(cc.col)
	cc.irreducible = cc.checkIrreducible()
	cc.pool.New = func() any { return &compiledWorkspace{} }
	return cc, nil
}

// checkIrreducible reports strong connectivity of the transition graph using
// forward and backward reachability over the CSR structure.
func (cc *Compiled) checkIrreducible() bool {
	n := len(cc.names)
	if n == 1 {
		return true
	}
	// Forward reachability from state 0.
	if cc.reachCount(cc.rowPtr, cc.col) != n {
		return false
	}
	// Backward: build the transpose adjacency once.
	counts := make([]int, n+1)
	for _, j := range cc.col {
		counts[j+1]++
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	radj := make([]int, len(cc.col))
	fill := append([]int(nil), counts[:n]...)
	for i := 0; i < n; i++ {
		for idx := cc.rowPtr[i]; idx < cc.rowPtr[i+1]; idx++ {
			j := cc.col[idx]
			radj[fill[j]] = i
			fill[j]++
		}
	}
	return cc.reachCount(counts, radj) == n
}

func (cc *Compiled) reachCount(rowPtr, col []int) int {
	n := len(cc.names)
	seen := make([]bool, n)
	stack := make([]int, 1, n)
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for idx := rowPtr[v]; idx < rowPtr[v+1]; idx++ {
			if w := col[idx]; !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count
}

// SetRate replaces the rate of an existing transition in the compiled
// structure. Edges cannot be added or removed (recompile for structural
// changes), so irreducibility is unaffected; the row's exit rate is re-summed
// in CSR order and the maximum exit rate re-derived, exactly as Compile
// computes them, so a refreshed chain is bit-identical to recompiling the
// source chain with the new rate.
//
// SetRate is the rate-only re-solve path used by frozen GSPN reachability
// graphs. It must not race with solves: mutate, then solve, from one owner —
// concurrent solves are safe only between mutations.
func (cc *Compiled) SetRate(from, to string, rate float64) error {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("%w: %q -> %q rate %v", ErrBadRate, from, to, rate)
	}
	i, ok := cc.index[from]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownState, from)
	}
	j, ok := cc.index[to]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownState, to)
	}
	slot := -1
	for idx := cc.rowPtr[i]; idx < cc.rowPtr[i+1]; idx++ {
		if cc.col[idx] == j {
			slot = idx
			break
		}
	}
	if slot < 0 {
		return fmt.Errorf("ctmc: no compiled transition %q -> %q (structure is frozen at Compile)", from, to)
	}
	cc.rate[slot] = rate
	var exit float64
	for idx := cc.rowPtr[i]; idx < cc.rowPtr[i+1]; idx++ {
		exit += cc.rate[idx]
	}
	cc.exit[i] = exit
	var maxExit float64
	for _, e := range cc.exit {
		if e > maxExit {
			maxExit = e
		}
	}
	cc.maxExit = maxExit
	kernelCounters.rateRefreshes.Add(1)
	return nil
}

// NumStates returns the number of states.
func (cc *Compiled) NumStates() int { return len(cc.names) }

// StateNames returns the state names in declaration order (a copy).
func (cc *Compiled) StateNames() []string {
	out := make([]string, len(cc.names))
	copy(out, cc.names)
	return out
}

// StateIndex returns the index of the named state.
func (cc *Compiled) StateIndex(name string) (int, error) {
	i, ok := cc.index[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownState, name)
	}
	return i, nil
}

// Distribution converts a probability vector (indexed by state) into the
// name-keyed Distribution.
func (cc *Compiled) Distribution(pi []float64) Distribution {
	d := make(Distribution, len(pi))
	for i, p := range pi {
		d[cc.names[i]] = p
	}
	return d
}

// resize returns dst with length n, reusing its backing array if possible.
func resize(dst []float64, n int) []float64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]float64, n)
}

// SteadyState computes the stationary distribution of an irreducible chain
// using the Grassmann–Taksar–Heyman (GTH) elimination algorithm, which avoids
// subtractive cancellation and is therefore accurate even when transition
// rates span many orders of magnitude (e.g. repair rate 1/h vs. failure rate
// 1e-4/h as in the travel-agency models).
func (cc *Compiled) SteadyState() (Distribution, error) {
	pi, err := cc.SteadyStateInto(nil)
	if err != nil {
		return nil, err
	}
	return cc.Distribution(pi), nil
}

// SteadyStateInto computes the stationary distribution by GTH elimination
// into dst (reused when its capacity suffices; pass nil to allocate). Apart
// from the result vector, the solve is allocation-free in steady state: the
// dense elimination scratch lives in a pooled workspace.
//
//ta:hotpath
func (cc *Compiled) SteadyStateInto(dst []float64) ([]float64, error) {
	kernelCounters.steadySolves.Add(1)
	n := len(cc.names)
	if n == 1 {
		dst = resize(dst, 1)
		dst[0] = 1
		return dst, nil
	}
	if !cc.irreducible {
		return nil, ErrNotIrreducible
	}
	ws := cc.pool.Get().(*compiledWorkspace)
	defer cc.pool.Put(ws)

	// Dense copy of the off-diagonal rates, zeroed then scattered from CSR.
	a := resize(ws.dense, n*n)
	ws.dense = a
	for i := range a {
		a[i] = 0
	}
	for i := 0; i < n; i++ {
		row := a[i*n : (i+1)*n]
		for idx := cc.rowPtr[i]; idx < cc.rowPtr[i+1]; idx++ {
			row[cc.col[idx]] = cc.rate[idx]
		}
	}

	// GTH elimination: for
	// k = n-1 down to 1, redistribute state k's probability flow over states
	// 0..k-1 using only additions, multiplications and positive divisions.
	for k := n - 1; k >= 1; k-- {
		rowK := a[k*n : k*n+k]
		var total float64
		for _, v := range rowK {
			total += v
		}
		if total <= 0 {
			return nil, fmt.Errorf("%w: state %q has no transitions to lower-numbered states during GTH elimination", ErrNotIrreducible, cc.names[k])
		}
		for i := 0; i < k; i++ {
			rateIK := a[i*n+k]
			if rateIK == 0 {
				continue
			}
			f := rateIK / total
			rowI := a[i*n : i*n+k]
			for j, v := range rowK {
				if v != 0 {
					rowI[j] += f * v
				}
			}
		}
	}

	// Back substitution: π₀ unnormalized = 1; πₖ = Σ_{i<k} πᵢ·a(i,k)/total(k).
	pi := resize(dst, n)
	pi[0] = 1
	for k := 1; k < n; k++ {
		var total float64
		for j := 0; j < k; j++ {
			total += a[k*n+j]
		}
		var num float64
		for i := 0; i < k; i++ {
			num += pi[i] * a[i*n+k]
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

// poissonTerms fills the workspace's weight cache with the Poisson pmf terms
// of the uniformization series for rate·time product lt, truncated at mass
// tolerance tol past the mean, with a hard cap at mean + 12·√mean + 40.
// Cached terms are reused when the same (lt, tol) recurs.
func (ws *compiledWorkspace) poissonTerms(lt, tol float64) ([]float64, float64) {
	if ws.lt == lt && ws.tol == tol && len(ws.weights) > 0 {
		kernelCounters.poissonHits.Add(1)
		return ws.weights, ws.wsum
	}
	kernelCounters.poissonMisses.Add(1)
	kMax := int(lt + 12*math.Sqrt(lt) + 40)
	ws.weights = ws.weights[:0]
	logW := -lt
	sumW := 0.0
	for k := 0; ; k++ {
		w := math.Exp(logW)
		ws.weights = append(ws.weights, w)
		sumW += w
		if 1-sumW < tol && float64(k) >= lt {
			break
		}
		if k >= kMax {
			break
		}
		logW += math.Log(lt) - math.Log(float64(k+1))
	}
	ws.lt, ws.tol, ws.wsum = lt, tol, sumW
	return ws.weights, sumW
}

// initialVector validates an initial distribution and returns it as a
// probability vector indexed by state.
func (cc *Compiled) initialVector(initial Distribution) ([]float64, error) {
	p0 := make([]float64, len(cc.names))
	var total float64
	for name, pr := range initial {
		i, ok := cc.index[name]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownState, name)
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
	return p0, nil
}

// Transient computes the state distribution at time t, starting from the
// given initial distribution, using uniformization (randomization / Jensen's
// method) with adaptive truncation of the Poisson series.
//
// The tolerance bounds the total truncated probability mass; 1e-12 is a good
// default. Initial states absent from `initial` have probability zero.
func (cc *Compiled) Transient(initial Distribution, t, tol float64) (Distribution, error) {
	p0, err := cc.initialVector(initial)
	if err != nil {
		return nil, err
	}
	out, err := cc.TransientInto(p0, t, tol, nil)
	if err != nil {
		return nil, err
	}
	return cc.Distribution(out), nil
}

// TransientInto runs allocation-free uniformization: p0 is the initial
// probability vector (indexed by state, assumed validated and summing to 1),
// and the result is written into dst (reused when capacity suffices). The
// ping-pong iteration vectors and the Poisson terms come from a pooled
// workspace; Poisson terms are cached across calls that share rate·t and
// tolerance.
//
//ta:hotpath
func (cc *Compiled) TransientInto(p0 []float64, t, tol float64, dst []float64) ([]float64, error) {
	return cc.uniformize(p0, t, tol, false, dst)
}

// Occupancy returns the expected time spent in each state over [0, t],
// starting from the given initial distribution: E[∫₀ᵗ 1{X(s) = i} ds]. The
// entries sum to t. The expected up time is Occupancy(...).SumOver(up), and
// any accumulated reward E[∫₀ᵗ r(X(s)) ds] is the occupancy-weighted sum of
// the reward rates — the first-year downtime of a farm, for instance.
//
// It runs the uniformization series of Transient with the weights
// P(N(t) > k)/Λ in place of the Poisson pmf, N(t) ~ Poisson(Λt), since
// ∫₀ᵗ p₀e^{Qs}ds = Σ_k P(N(t) > k)/Λ · p₀Pᵏ. The tolerance bounds the
// truncated probability mass of the series, as for Transient.
func (cc *Compiled) Occupancy(initial Distribution, t, tol float64) (Distribution, error) {
	p0, err := cc.initialVector(initial)
	if err != nil {
		return nil, err
	}
	out, err := cc.uniformize(p0, t, tol, true, nil)
	if err != nil {
		return nil, err
	}
	return cc.Distribution(out), nil
}

// uniformize is the one uniformization loop behind TransientInto and
// Occupancy: it accumulates Σ_k w_k·(p0·Pᵏ) with P = I + Q/Λ applied over
// the CSR rows, then rescales the sum to absorb the truncation defect. The
// transient weights w_k are the Poisson pmf terms; the occupancy weights
// are (1 − cdf_k)/Λ, built from the same cached terms as the loop runs.
//
//ta:hotpath
func (cc *Compiled) uniformize(p0 []float64, t, tol float64, occupancy bool, dst []float64) ([]float64, error) {
	n := len(cc.names)
	if len(p0) != n {
		return nil, fmt.Errorf("ctmc: initial vector length %d, want %d", len(p0), n)
	}
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("ctmc: invalid time %v", t)
	}
	if tol <= 0 {
		tol = 1e-12
	}
	kernelCounters.transientSolves.Add(1)
	acc := resize(dst, n)
	if t == 0 || cc.maxExit == 0 {
		// The chain stays where it starts: p(t) = p0, occupancy p0·t.
		copy(acc, p0)
		if occupancy {
			for i := range acc {
				acc[i] *= t
			}
		}
		return acc, nil
	}
	lambda := cc.maxExit * 1.02

	ws := cc.pool.Get().(*compiledWorkspace)
	defer cc.pool.Put(ws)
	ws.vec[0] = resize(ws.vec[0], n)
	ws.vec[1] = resize(ws.vec[1], n)

	pmf, norm := ws.poissonTerms(lambda*t, tol)
	kernelCounters.uniformSteps.Add(int64(len(pmf) - 1))

	// Accumulate Σ_k w_k · (p0·P^k) with P = I + Q/λ applied sparsely.
	v := ws.vec[0]
	copy(v, p0)
	next := ws.vec[1]
	for i := range acc {
		acc[i] = 0
	}
	var cdf, occSum float64
	for k, w := range pmf {
		if occupancy {
			cdf += w
			w = math.Max((1-cdf)/lambda, 0)
			occSum += w
		}
		for i, vi := range v {
			acc[i] += w * vi
		}
		if k == len(pmf)-1 {
			break
		}
		for i := range next {
			next[i] = 0
		}
		for i, vi := range v {
			if vi == 0 {
				continue
			}
			next[i] += vi * (1 - cc.exit[i]/lambda)
			for idx := cc.rowPtr[i]; idx < cc.rowPtr[i+1]; idx++ {
				next[cc.col[idx]] += vi * cc.rate[idx] / lambda
			}
		}
		v, next = next, v
	}
	// Renormalize the truncation defect: the pmf should sum to 1 and the
	// occupancy weights to t.
	if occupancy {
		if occSum == 0 {
			// Λ·t is below rounding, so every 1 − cdf_k is 0: the chain
			// does not leave p0 within [0, t].
			for i := range acc {
				acc[i] = p0[i] * t
			}
			return acc, nil
		}
		norm = occSum / t
	}
	if norm > 0 {
		for i := range acc {
			acc[i] /= norm
		}
	}
	return acc, nil
}

// MeanTimeToAbsorption computes, for a chain in which the given states are
// absorbing targets, the expected time to reach any of them from each
// transient state. Transitions out of target states are ignored. The result
// maps transient state names to expected hitting times; target states map
// to zero.
func (cc *Compiled) MeanTimeToAbsorption(targets ...string) (map[string]float64, error) {
	n := len(cc.names)
	isTarget := make([]bool, n)
	for _, t := range targets {
		i, err := cc.StateIndex(t)
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
		if cc.exit[i] == 0 {
			return nil, fmt.Errorf("ctmc: transient state %q cannot reach any target", cc.names[i])
		}
		a.Set(r, r, -cc.exit[i])
		for idx := cc.rowPtr[i]; idx < cc.rowPtr[i+1]; idx++ {
			if j := cc.col[idx]; !isTarget[j] {
				a.Add(r, pos[j], cc.rate[idx])
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
			return nil, fmt.Errorf("ctmc: invalid hitting time %v for state %q (target set unreachable?)", h[r], cc.names[i])
		}
		out[cc.names[i]] = h[r]
	}
	return out, nil
}
