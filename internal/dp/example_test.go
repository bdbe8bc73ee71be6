package dp_test

import (
	"fmt"
	"math"
	"math/rand"

	"singlingout/internal/dp"
)

// ExampleLaplaceCount releases a count under ε-differential privacy three
// times. Under basic composition the releases' epsilons add, so the three
// together cost ε = 1.
func ExampleLaplaceCount() {
	rng := rand.New(rand.NewSource(1))
	trueCount := int64(1234)
	spent := 0.0
	for _, eps := range []float64{0.25, 0.25, 0.5} {
		noisy := dp.LaplaceCount(rng, trueCount, eps)
		spent += eps
		fmt.Printf("eps %.2f: within 50 of the truth: %v\n", eps, math.Abs(noisy-float64(trueCount)) < 50)
	}
	fmt.Printf("privacy loss spent: %.2f\n", spent)
	// Output:
	// eps 0.25: within 50 of the truth: true
	// eps 0.25: within 50 of the truth: true
	// eps 0.50: within 50 of the truth: true
	// privacy loss spent: 1.00
}
