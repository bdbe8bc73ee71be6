package dp

import (
	"math/rand"
	"testing"
)

func BenchmarkLaplaceCount(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		LaplaceCount(rng, 100, 1.0)
	}
}

func BenchmarkGeometricCount(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		GeometricCount(rng, 100, 1.0)
	}
}

func BenchmarkHistogram1k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	counts := make([]int64, 1000)
	for i := range counts {
		counts[i] = int64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Histogram(rng, counts, 1.0)
	}
}

func BenchmarkExponential100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 100)
	for i := range scores {
		scores[i] = float64(i % 17)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exponential(rng, scores, 1.0, 1.0)
	}
}
