package linalg

import (
	"fmt"
	"math"
)

// LU holds an LU factorization with partial pivoting of a square matrix:
// P·A = L·U, where L is unit lower triangular and U is upper triangular.
// The factors are stored packed in lu; piv records the row permutation.
//
// An LU value is reusable: Refactor overwrites it with the factorization of
// a new matrix, reusing the existing storage whenever the dimension matches.
// This is the allocation-free path used by the compiled CTMC kernels, which
// factor one workspace repeatedly across a parameter sweep.
type LU struct {
	lu   *Matrix
	piv  []int
	sign int // +1 or -1 depending on permutation parity
}

// NewLU returns an empty factorization workspace for n×n systems. The
// workspace becomes usable after the first Refactor.
func NewLU(n int) *LU {
	return &LU{lu: NewMatrix(n, n), piv: make([]int, n)}
}

// Factor computes the LU factorization of the square matrix a using partial
// pivoting. It returns ErrSingular if a pivot is exactly zero; near-singular
// matrices are detected by ConditionEstimate or by inspecting the result.
func Factor(a *Matrix) (*LU, error) {
	f := &LU{}
	if err := f.Refactor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor overwrites f with the factorization of a, reusing f's storage
// when the dimensions match (no allocations in the steady case). The
// matrix a is not modified. On error f's previous contents are destroyed.
//
//ta:hotpath
func (f *LU) Refactor(a *Matrix) error {
	if a.Rows() != a.Cols() {
		return fmt.Errorf("%w: LU of %dx%d matrix", ErrDimension, a.Rows(), a.Cols())
	}
	n := a.Rows()
	//lint:ignore hotpathalloc one-time storage growth on dimension change, amortized across refactorizations
	if f.lu == nil || f.lu.rows != n {
		f.lu = NewMatrix(n, n)
		f.piv = make([]int, n)
	}
	copy(f.lu.data, a.data)
	lu := f.lu
	piv := f.piv
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Find pivot.
		p := k
		max := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > max {
				max = v
				p = i
			}
		}
		if max == 0 {
			return fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if p != k {
			swapRows(lu, p, k)
			piv[p], piv[k] = piv[k], piv[p]
			sign = -sign
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			mult := lu.At(i, k) / pivot
			lu.Set(i, k, mult)
			if mult == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Add(i, j, -mult*lu.At(k, j))
			}
		}
	}
	f.sign = sign
	return nil
}

func swapRows(m *Matrix, i, j int) {
	for c := 0; c < m.Cols(); c++ {
		vi, vj := m.At(i, c), m.At(j, c)
		m.Set(i, c, vj)
		m.Set(j, c, vi)
	}
}

// Solve solves A·x = b for x using the factorization.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, len(b))
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A·x = b writing the solution into x without allocating.
// x and b must have length n and must not alias each other (the permuted
// copy of b is built in x before substitution).
//
//ta:hotpath
func (f *LU) SolveInto(x, b []float64) error {
	n := f.lu.Rows()
	if len(b) != n {
		return fmt.Errorf("%w: rhs length %d, want %d", ErrDimension, len(b), n)
	}
	if len(x) != n {
		return fmt.Errorf("%w: solution length %d, want %d", ErrDimension, len(x), n)
	}
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		x[i] -= s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		d := f.lu.At(i, i)
		if d == 0 {
			return fmt.Errorf("%w: zero diagonal during back substitution", ErrSingular)
		}
		x[i] = (x[i] - s) / d
	}
	return nil
}

// Solve solves the linear system a·x = b.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
