package dtmc

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
)

// kernelCounters aggregates compiled-solver activity across every Compiled
// chain in the process, mirroring the ctmc kernel counters: how many chains
// were compiled, how many absorbing analyses ran, how many fundamental-matrix
// column solves those analyses performed, and how many rate-only probability
// refreshes were applied to frozen structures. Exported through
// ReadKernelStats, which obs.RegisterKernels publishes as kernel_dtmc_*.
var kernelCounters struct {
	compiles     atomic.Int64
	analyses     atomic.Int64
	columnSolves atomic.Int64
	refreshes    atomic.Int64
}

// KernelStats is a snapshot of the process-wide compiled-DTMC counters.
type KernelStats struct {
	// Compiles counts Chain.Compile calls; Analyses counts absorbing
	// analyses through the compiled kernel.
	Compiles int64
	Analyses int64
	// ColumnSolves counts the allocation-free SolveInto column solves used
	// to build fundamental matrices (one per transient state per analysis).
	ColumnSolves int64
	// Refreshes counts SetProbability rate-only updates to frozen chains.
	Refreshes int64
}

// ReadKernelStats returns the current process-wide kernel counters.
func ReadKernelStats() KernelStats {
	return KernelStats{
		Compiles:     kernelCounters.compiles.Load(),
		Analyses:     kernelCounters.analyses.Load(),
		ColumnSolves: kernelCounters.columnSolves.Load(),
		Refreshes:    kernelCounters.refreshes.Load(),
	}
}

// edgeRef locates one frozen transition inside the compiled CSR blocks.
type edgeRef struct {
	inQ bool // true: Q (transient→transient) block, false: R block
	idx int
}

// Compiled is a frozen, solver-ready snapshot of an absorbing Chain: the
// transient/absorbing partition, the Q (transient→transient) and R
// (transient→absorbing) blocks in CSR form with deterministically sorted
// successors, and a pool of reusable solver workspaces (dense I−Q scratch, a
// reusable LU factorization, unit/solution vectors, and a dense R buffer).
//
// Structure is frozen at Compile time; SetProbability adjusts transition
// probabilities along existing edges without re-partitioning, which is the
// incremental re-solve path used by parameter sweeps (perturb → Analyze).
// Concurrent Analyze calls are safe; SetProbability must not race with
// Analyze (single-owner mutation, like rebuilding a Chain).
//
// Compiled is the package's only absorbing-chain solver. Its numeric kernel
// follows the textbook analysis operation for operation — identity-minus-Q
// assembly, LU with partial pivoting, unit-vector column solves, and the
// dense N·R product — so results are bit-identical to the generic reference
// solver that the tests keep (AnalyzeAbsorbing, in reference_test.go).
type Compiled struct {
	names     []string
	index     map[string]int
	transient []int // chain indices of transient states
	absorbing []int // chain indices of absorbing states
	// pos maps a chain index to its transient position, or to the
	// complement ^k of its absorbing position k (always negative).
	pos []int

	qRowPtr []int // len t+1
	qCol    []int // transient positions
	qVal    []float64
	rRowPtr []int // len t+1
	rCol    []int // absorbing positions
	rVal    []float64

	// edges maps (from, to) chain indices to the CSR slot that
	// SetProbability refreshes; nil for an anonymous chain.
	edges map[[2]int]edgeRef
	pool  sync.Pool // of *compiledWorkspace
}

// compiledWorkspace holds per-analysis scratch: everything that does not
// outlive one AnalyzeInto call.
type compiledWorkspace struct {
	iq     *linalg.Matrix // t×t I−Q
	lu     *linalg.LU
	e      []float64 // unit right-hand side
	col    []float64 // column solution
	rDense []float64 // t×|A| dense R
}

// resize returns dst with length n, reusing its backing array if possible.
func resize(dst []float64, n int) []float64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]float64, n)
}

// Compile freezes the chain into its solver-ready absorbing form. The chain
// must have at least one state and at least one absorbing state; row-sum
// validation is deferred to Analyze, so probabilities can be refreshed
// between analyses.
func (c *Chain) Compile() (*Compiled, error) {
	rows := make([][]Arc, len(c.prob))
	for i, row := range c.prob {
		for j, p := range row {
			rows[i] = append(rows[i], Arc{To: j, P: p})
		}
		sort.Slice(rows[i], func(a, b int) bool { return rows[i][a].To < rows[i][b].To })
	}
	return compile(c.names, rows)
}

// compile freezes a chain given as rows of successor arcs (an empty row is
// absorbing). With names nil the chain is anonymous: it can be analyzed but
// not addressed or refreshed by state name.
func compile(names []string, rows [][]Arc) (*Compiled, error) {
	kernelCounters.compiles.Add(1)
	n := len(rows)
	if n == 0 {
		return nil, errors.New("dtmc: chain has no states")
	}
	cc := &Compiled{
		names: append([]string(nil), names...),
		pos:   make([]int, n),
	}
	if names != nil {
		cc.index = make(map[string]int, len(names))
		for i, name := range names {
			cc.index[name] = i
		}
		cc.edges = make(map[[2]int]edgeRef)
	}
	for i, row := range rows {
		if len(row) == 0 {
			cc.pos[i] = ^len(cc.absorbing)
			cc.absorbing = append(cc.absorbing, i)
		} else {
			cc.pos[i] = len(cc.transient)
			cc.transient = append(cc.transient, i)
		}
	}
	if len(cc.absorbing) == 0 {
		return nil, errors.New("dtmc: chain has no absorbing states")
	}
	t := len(cc.transient)
	cc.qRowPtr = make([]int, t+1)
	cc.rRowPtr = make([]int, t+1)
	for r, i := range cc.transient {
		cc.qRowPtr[r] = len(cc.qCol)
		cc.rRowPtr[r] = len(cc.rCol)
		for _, a := range rows[i] {
			ref := edgeRef{inQ: cc.pos[a.To] >= 0}
			if ref.inQ {
				ref.idx = len(cc.qCol)
				cc.qCol = append(cc.qCol, cc.pos[a.To])
				cc.qVal = append(cc.qVal, a.P)
			} else {
				ref.idx = len(cc.rCol)
				cc.rCol = append(cc.rCol, ^cc.pos[a.To])
				cc.rVal = append(cc.rVal, a.P)
			}
			if cc.edges != nil {
				cc.edges[[2]int{i, a.To}] = ref
			}
		}
	}
	cc.qRowPtr[t] = len(cc.qCol)
	cc.rRowPtr[t] = len(cc.rCol)
	cc.pool.New = func() any { return &compiledWorkspace{} }
	return cc, nil
}

// stateName names state i in diagnostics; an anonymous chain's states are
// numbered.
func (cc *Compiled) stateName(i int) string {
	if i < len(cc.names) {
		return cc.names[i]
	}
	return fmt.Sprintf("#%d", i)
}

// SetProbability replaces the probability of an existing transition. The
// transition must exist in the frozen structure: edges cannot be added or
// removed after Compile (recompile for structural changes). Row sums are not
// checked here — Analyze re-validates, so several edges of one row can be
// refreshed in sequence.
func (cc *Compiled) SetProbability(from, to string, p float64) error {
	if p <= 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("%w: %q -> %q probability %v", ErrBadProbability, from, to, p)
	}
	i, ok := cc.index[from]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownState, from)
	}
	j, ok := cc.index[to]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownState, to)
	}
	ref, ok := cc.edges[[2]int{i, j}]
	if !ok {
		return fmt.Errorf("dtmc: no compiled transition %q -> %q (structure is frozen at Compile)", from, to)
	}
	if ref.inQ {
		cc.qVal[ref.idx] = p
	} else {
		cc.rVal[ref.idx] = p
	}
	kernelCounters.refreshes.Add(1)
	return nil
}

// CompiledAnalysis holds the results of absorbing-chain analysis through the
// compiled kernel: the fundamental matrix N = (I−Q)⁻¹ and the absorption
// probabilities B = N·R, both row-major over transient positions. The result
// buffers are owned by the analysis value (not the workspace pool), so a
// sweep can hold one CompiledAnalysis and refresh it allocation-free with
// AnalyzeInto.
type CompiledAnalysis struct {
	cc     *Compiled
	fund   []float64 // t×t
	absorb []float64 // t×|A|
}

// Analyze runs absorbing-chain analysis with fresh result buffers.
func (cc *Compiled) Analyze() (*CompiledAnalysis, error) {
	return cc.AnalyzeInto(nil)
}

// AnalyzeInto runs absorbing-chain analysis reusing prev's result buffers
// when prev belongs to this compiled chain (pass nil to allocate). The solve
// itself is allocation-free in steady state: the dense I−Q scratch, the LU
// factorization storage, and the dense R buffer live in a pooled workspace
// and every fundamental-matrix column is an in-place SolveInto.
//
//ta:hotpath
func (cc *Compiled) AnalyzeInto(prev *CompiledAnalysis) (*CompiledAnalysis, error) {
	kernelCounters.analyses.Add(1)
	t := len(cc.transient)
	nA := len(cc.absorbing)
	// Row-sum validation, mirroring Chain.Validate (absorbing rows are empty
	// by construction).
	for r := range cc.transient {
		var s float64
		for idx := cc.qRowPtr[r]; idx < cc.qRowPtr[r+1]; idx++ {
			s += cc.qVal[idx]
		}
		for idx := cc.rRowPtr[r]; idx < cc.rRowPtr[r+1]; idx++ {
			s += cc.rVal[idx]
		}
		if math.Abs(s-1) > probTolerance {
			return nil, fmt.Errorf("%w: state %q sums to %v", ErrNotStochastic, cc.stateName(cc.transient[r]), s)
		}
	}
	an := prev
	if an == nil || an.cc != cc {
		//lint:ignore hotpathalloc first-use allocation; steady-state callers pass prev back in
		an = &CompiledAnalysis{cc: cc}
	}
	if t == 0 {
		an.fund = an.fund[:0]
		an.absorb = an.absorb[:0]
		return an, nil
	}

	ws := cc.pool.Get().(*compiledWorkspace)
	defer cc.pool.Put(ws)
	//lint:ignore hotpathalloc one-time workspace growth, amortized across every later analysis
	if ws.iq == nil || ws.iq.Rows() != t {
		ws.iq = linalg.NewMatrix(t, t)
		ws.lu = linalg.NewLU(t)
		ws.e = make([]float64, t)
		ws.col = make([]float64, t)
	}

	// I − Q exactly as the reference path builds it: identity, then one
	// subtraction per stored Q entry (each cell is touched at most once, so
	// assembly order cannot change the bits).
	iq := ws.iq
	for i := 0; i < t; i++ {
		for j := 0; j < t; j++ {
			if i == j {
				iq.Set(i, j, 1)
			} else {
				iq.Set(i, j, 0)
			}
		}
	}
	for r := 0; r < t; r++ {
		for idx := cc.qRowPtr[r]; idx < cc.qRowPtr[r+1]; idx++ {
			iq.Add(r, cc.qCol[idx], -cc.qVal[idx])
		}
	}

	// N = (I−Q)⁻¹ via Refactor + per-column SolveInto: one factorization
	// and one unit-vector solve per column, into the workspace.
	if err := ws.lu.Refactor(iq); err != nil {
		return nil, fmt.Errorf("dtmc: fundamental matrix (some transient state cannot reach absorption): %w", err)
	}
	fund := resize(an.fund, t*t)
	for j := 0; j < t; j++ {
		for i := range ws.e {
			ws.e[i] = 0
		}
		ws.e[j] = 1
		if err := ws.lu.SolveInto(ws.col, ws.e); err != nil {
			return nil, fmt.Errorf("dtmc: fundamental matrix (some transient state cannot reach absorption): %w", err)
		}
		for i := 0; i < t; i++ {
			fund[i*t+j] = ws.col[i]
		}
	}
	kernelCounters.columnSolves.Add(int64(t))
	for r := 0; r < t; r++ {
		for cIdx := 0; cIdx < t; cIdx++ {
			if fund[r*t+cIdx] < -1e-9 {
				return nil, fmt.Errorf("dtmc: fundamental matrix has negative entry %v; transient class %q cannot reach absorption", fund[r*t+cIdx], cc.stateName(cc.transient[r]))
			}
		}
	}
	an.fund = fund

	// B = N·R with Matrix.Mul's exact loop order over a dense R scratch,
	// including the a == 0 row skip, so the accumulation matches the generic
	// product bit for bit.
	rd := resize(ws.rDense, t*nA)
	ws.rDense = rd
	for i := range rd {
		rd[i] = 0
	}
	for r := 0; r < t; r++ {
		for idx := cc.rRowPtr[r]; idx < cc.rRowPtr[r+1]; idx++ {
			rd[r*nA+cc.rCol[idx]] = cc.rVal[idx]
		}
	}
	absorb := resize(an.absorb, t*nA)
	for i := range absorb {
		absorb[i] = 0
	}
	for i := 0; i < t; i++ {
		outRow := absorb[i*nA : (i+1)*nA]
		for k := 0; k < t; k++ {
			a := fund[i*t+k]
			if a == 0 {
				continue
			}
			rowK := rd[k*nA : (k+1)*nA]
			for j, b := range rowK {
				outRow[j] += a * b
			}
		}
	}
	an.absorb = absorb
	return an, nil
}

// TransientStates returns the names of the transient states.
func (a *CompiledAnalysis) TransientStates() []string {
	out := make([]string, len(a.cc.transient))
	for k, i := range a.cc.transient {
		out[k] = a.cc.stateName(i)
	}
	return out
}

// AbsorbingStates returns the names of the absorbing states.
func (a *CompiledAnalysis) AbsorbingStates() []string {
	out := make([]string, len(a.cc.absorbing))
	for k, i := range a.cc.absorbing {
		out[k] = a.cc.stateName(i)
	}
	return out
}

// transientRow resolves start to its transient position.
func (a *CompiledAnalysis) transientRow(start string) (int, error) {
	i, ok := a.cc.index[start]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownState, start)
	}
	row := a.cc.pos[i]
	if row < 0 {
		return 0, fmt.Errorf("dtmc: state %q is absorbing, not transient", start)
	}
	return row, nil
}

// ExpectedVisits returns the expected number of visits to each transient
// state before absorption, starting from the given transient state.
func (a *CompiledAnalysis) ExpectedVisits(start string) (map[string]float64, error) {
	row, err := a.transientRow(start)
	if err != nil {
		return nil, err
	}
	t := len(a.cc.transient)
	out := make(map[string]float64, t)
	for col, j := range a.cc.transient {
		out[a.cc.names[j]] = a.fund[row*t+col]
	}
	return out, nil
}

// ExpectedVisitsInto writes the fundamental-matrix row for start into dst,
// indexed by transient position (see TransientStates for the ordering),
// without allocating when dst has capacity.
//
//ta:hotpath
func (a *CompiledAnalysis) ExpectedVisitsInto(dst []float64, start string) ([]float64, error) {
	row, err := a.transientRow(start)
	if err != nil {
		return nil, err
	}
	t := len(a.cc.transient)
	dst = resize(dst, t)
	copy(dst, a.fund[row*t:(row+1)*t])
	return dst, nil
}

// ExpectedStepsToAbsorption returns the expected number of steps before
// absorption from the given transient state (the row sum of N, accumulated
// in transient-position order).
func (a *CompiledAnalysis) ExpectedStepsToAbsorption(start string) (float64, error) {
	row, err := a.transientRow(start)
	if err != nil {
		return 0, err
	}
	t := len(a.cc.transient)
	var s float64
	for _, v := range a.fund[row*t : (row+1)*t] {
		s += v
	}
	return s, nil
}

// AbsorptionProbabilities returns, for the given starting state, the
// probability of ending in each absorbing state. Absorbing starts yield the
// identity row, matching the generic analysis.
func (a *CompiledAnalysis) AbsorptionProbabilities(start string) (map[string]float64, error) {
	i, ok := a.cc.index[start]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownState, start)
	}
	nA := len(a.cc.absorbing)
	out := make(map[string]float64, nA)
	row := a.cc.pos[i]
	if row < 0 {
		for k, j := range a.cc.absorbing {
			if k == ^row {
				out[a.cc.names[j]] = 1
			} else {
				out[a.cc.names[j]] = 0
			}
		}
		return out, nil
	}
	for col, j := range a.cc.absorbing {
		out[a.cc.names[j]] = a.absorb[row*nA+col]
	}
	return out, nil
}

// AbsorptionProbabilitiesInto writes the absorption-probability row for start
// into dst, indexed by absorbing position (see AbsorbingStates for the
// ordering), without allocating when dst has capacity.
//
//ta:hotpath
func (a *CompiledAnalysis) AbsorptionProbabilitiesInto(dst []float64, start string) ([]float64, error) {
	i, ok := a.cc.index[start]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownState, start)
	}
	nA := len(a.cc.absorbing)
	dst = resize(dst, nA)
	row := a.cc.pos[i]
	if row < 0 {
		for k := range dst {
			if k == ^row {
				dst[k] = 1
			} else {
				dst[k] = 0
			}
		}
		return dst, nil
	}
	copy(dst, a.absorb[row*nA:(row+1)*nA])
	return dst, nil
}
