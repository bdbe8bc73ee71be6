package lp

import (
	"math/rand"
	"testing"
)

// reconLP builds the L1-fitting LP used by the reconstruction attacks.
func reconLP(rng *rand.Rand, n int) *Problem {
	m := 4 * n
	nv := n + m
	obj := make([]float64, nv)
	for j := n; j < nv; j++ {
		obj[j] = 1
	}
	p := &Problem{NumVars: nv, Objective: obj}
	for k := 0; k < m; k++ {
		up := make([]float64, nv)
		lo := make([]float64, nv)
		sum := 0.0
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				up[i] = 1
				lo[i] = -1
				sum += float64(rng.Intn(2))
			}
		}
		up[n+k] = -1
		lo[n+k] = -1
		p.Constraints = append(p.Constraints,
			dense(up, sum+rng.Float64()),
			dense(lo, -sum+rng.Float64()))
	}
	for i := 0; i < n; i++ {
		p.Constraints = append(p.Constraints, Constraint{Vars: []int{i}, Coeffs: []float64{1}, RHS: 1})
	}
	return p
}

func benchSolve(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	p := reconLP(rng, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Solve(ctx, p)
		if err != nil {
			b.Fatal(err)
		}
		if s.Status != Optimal {
			b.Fatalf("status %v", s.Status)
		}
	}
}

func BenchmarkSolveReconLP32(b *testing.B) { benchSolve(b, 32) }
func BenchmarkSolveReconLP64(b *testing.B) { benchSolve(b, 64) }
