package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNewMatrixFromRows(t *testing.T) {
	m, err := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatalf("NewMatrixFromRows: %v", err)
	}
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", m.Rows(), m.Cols())
	}
	if got := m.At(2, 1); got != 6 {
		t.Errorf("At(2,1) = %v, want 6", got)
	}
}

func TestNewMatrixFromRowsRagged(t *testing.T) {
	if _, err := NewMatrixFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
	if _, err := NewMatrixFromRows(nil); err == nil {
		t.Fatal("expected error for empty rows")
	}
}

func TestMatrixSetAddClone(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if got := m.At(0, 1); got != 7 {
		t.Fatalf("At(0,1) = %v, want 7", got)
	}
	c := m.Clone()
	c.Set(0, 1, 99)
	if got := m.At(0, 1); got != 7 {
		t.Fatalf("Clone aliases the original: At(0,1) = %v, want 7", got)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := Solve(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-12) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero pivot forces a row swap.
	a, _ := NewMatrixFromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{3, 4})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEqual(x[0], 4, 1e-14) || !almostEqual(x[1], 3, 1e-14) {
		t.Errorf("x = %v, want [4 3]", x)
	}
}

// Property: for random well-conditioned diagonally dominant systems,
// Solve produces x with small residual A·x - b.
func TestSolveResidualProperty(t *testing.T) {
	f := func(seedVals [9]float64, bVals [3]float64) bool {
		a := NewMatrix(3, 3)
		for i := 0; i < 3; i++ {
			var rowSum float64
			for j := 0; j < 3; j++ {
				v := math.Mod(math.Abs(seedVals[i*3+j]), 1)
				if math.IsNaN(v) {
					v = 0.5
				}
				a.Set(i, j, v)
				rowSum += v
			}
			// Make strictly diagonally dominant, hence nonsingular.
			a.Set(i, i, rowSum+1)
		}
		b := make([]float64, 3)
		for i, v := range bVals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			b[i] = math.Mod(v, 100)
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range b {
			var ax float64
			for j, xj := range x {
				ax += a.At(i, j) * xj
			}
			if math.Abs(ax-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMatrixString(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{1, 2}})
	if got := m.String(); got != "[1 2]\n" {
		t.Errorf("String() = %q", got)
	}
}

func TestPanicsOnBadIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	NewMatrix(2, 2).At(2, 0)
}
