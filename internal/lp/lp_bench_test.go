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

// BenchmarkRevisedReconLP times the revised engine on reconLP at the
// lp-recon benchmark's size (n = 24, m = 4n): a cold one-shot Revised
// solve, and a warm re-solve on a kept Engine after the answer rows' RHS
// moves, alternating between two answer vectors so every solve has dual
// simplex work to do. Both report pivots/op, ns/pivot and allocs/op, so
// the pivot count and the cost of a pivot show separately.
func BenchmarkRevisedReconLP(b *testing.B) {
	const n = 24
	p := reconLP(rand.New(rand.NewSource(1)), n)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		pivots := 0
		for i := 0; i < b.N; i++ {
			s, err := Revised(ctx, p, nil)
			if err != nil {
				b.Fatal(err)
			}
			if s.Status != Optimal {
				b.Fatalf("status %v", s.Status)
			}
			pivots += s.Pivots
		}
		reportPivots(b, pivots)
	})
	b.Run("warm", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		rhs := [2][]float64{make([]float64, 8*n), make([]float64, 8*n)}
		for r := range rhs[0] {
			rhs[0][r] = p.Constraints[r].RHS
			rhs[1][r] = p.Constraints[r].RHS + rng.Float64() - 0.5
		}
		q := &Problem{NumVars: p.NumVars, Objective: p.Objective, Constraints: append([]Constraint(nil), p.Constraints...)}
		en, err := NewEngine(q)
		if err != nil {
			b.Fatal(err)
		}
		s, err := en.Solve(ctx, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		pivots := 0
		for i := 0; i < b.N; i++ {
			for r, v := range rhs[(i+1)%2] {
				q.Constraints[r].RHS = v
			}
			if s, err = en.Solve(ctx, s.Basis); err != nil {
				b.Fatal(err)
			}
			if s.Status != Optimal || !s.Warm {
				b.Fatalf("status %v, warm %v", s.Status, s.Warm)
			}
			pivots += s.Pivots
		}
		reportPivots(b, pivots)
	})
}

// reportPivots reports pivots/op and the benchmark's time per pivot.
func reportPivots(b *testing.B, pivots int) {
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	if pivots > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pivots), "ns/pivot")
	}
}
