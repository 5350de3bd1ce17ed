package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func randomSystem(rng *rand.Rand, n int) (*Matrix, []float64) {
	a := NewMatrix(n, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		b[i] = rng.NormFloat64()
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		// Diagonal dominance keeps the random systems comfortably regular.
		a.Add(i, i, float64(n))
	}
	return a, b
}

// TestRefactorMatchesFactor checks the buffer-reusing path produces exactly
// the same factors and solutions as the allocating path, across repeated
// reuse of one workspace.
func TestRefactorMatchesFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := NewLU(5)
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(9)
		a, b := randomSystem(rng, n)

		fresh, err := Factor(a)
		if err != nil {
			t.Fatalf("trial %d: Factor: %v", trial, err)
		}
		if err := ws.Refactor(a); err != nil {
			t.Fatalf("trial %d: Refactor: %v", trial, err)
		}
		if fresh.sign != ws.sign {
			t.Fatalf("trial %d: sign %d vs %d", trial, fresh.sign, ws.sign)
		}
		for i := range fresh.piv {
			if fresh.piv[i] != ws.piv[i] {
				t.Fatalf("trial %d: pivot mismatch at %d", trial, i)
			}
		}
		for i := range fresh.lu.data {
			if fresh.lu.data[i] != ws.lu.data[i] {
				t.Fatalf("trial %d: factor data mismatch at %d", trial, i)
			}
		}

		want, err := fresh.Solve(b)
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		x := make([]float64, n)
		if err := ws.SolveInto(x, b); err != nil {
			t.Fatalf("trial %d: SolveInto: %v", trial, err)
		}
		for i := range want {
			if want[i] != x[i] {
				t.Fatalf("trial %d: x[%d] = %v vs %v (must be bit-identical)", trial, i, x[i], want[i])
			}
		}
	}
}

// TestRefactorDoesNotModifyInput guards the copy semantics.
func TestRefactorDoesNotModifyInput(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{2, 1}, {1, 3}})
	snapshot := a.Clone()
	ws := NewLU(2)
	if err := ws.Refactor(a); err != nil {
		t.Fatal(err)
	}
	for i := range snapshot.data {
		if a.data[i] != snapshot.data[i] {
			t.Fatalf("input matrix modified at flat index %d", i)
		}
	}
}

func TestSolveIntoValidation(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{2, 1}, {1, 3}})
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SolveInto(make([]float64, 3), []float64{1, 2}); !errors.Is(err, ErrDimension) {
		t.Fatalf("bad x length: %v", err)
	}
	if err := f.SolveInto(make([]float64, 2), []float64{1, 2, 3}); !errors.Is(err, ErrDimension) {
		t.Fatalf("bad b length: %v", err)
	}
}

func TestRefactorErrors(t *testing.T) {
	ws := NewLU(2)
	if err := ws.Refactor(NewMatrix(2, 3)); !errors.Is(err, ErrDimension) {
		t.Fatalf("non-square: %v", err)
	}
	if err := ws.Refactor(NewMatrix(3, 3)); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular zero matrix: %v", err)
	}
	// Workspace recovers from an error on the next well-posed system.
	a, b := randomSystem(rand.New(rand.NewSource(1)), 4)
	if err := ws.Refactor(a); err != nil {
		t.Fatalf("refactor after error: %v", err)
	}
	x := make([]float64, 4)
	if err := ws.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	// Residual check: A·x ≈ b.
	for i := 0; i < 4; i++ {
		var s float64
		for j := 0; j < 4; j++ {
			s += a.At(i, j) * x[j]
		}
		if math.Abs(s-b[i]) > 1e-10 {
			t.Fatalf("residual %v at row %d", s-b[i], i)
		}
	}
}
