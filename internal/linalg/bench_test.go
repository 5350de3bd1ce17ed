package linalg

import "testing"

var benchSink float64

// benchMatrix builds a well-conditioned diagonally dominant n×n system.
func benchMatrix(n int) (*Matrix, []float64) {
	a := NewMatrix(n, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			v := float64((i*j)%7+1) / 7
			a.Set(i, j, v)
			rowSum += v
		}
		a.Set(i, i, rowSum+1)
		b[i] = float64(i%5) + 1
	}
	return a, b
}

func BenchmarkSolve50(b *testing.B) {
	a, rhs := benchMatrix(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := Solve(a, rhs)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += x[0]
	}
}
