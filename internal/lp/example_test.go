package lp_test

import (
	"context"
	"fmt"

	"singlingout/internal/lp"
)

// ExampleSolve solves the classic two-variable production LP.
func ExampleSolve() {
	// maximize 3x + 5y  ⇔  minimize -3x - 5y
	p := &lp.Problem{
		NumVars:   2,
		Objective: []float64{-3, -5},
		Constraints: []lp.Constraint{
			{Vars: []int{0}, Coeffs: []float64{1}, RHS: 4},        // x ≤ 4
			{Vars: []int{1}, Coeffs: []float64{2}, RHS: 12},       // 2y ≤ 12
			{Vars: []int{0, 1}, Coeffs: []float64{3, 2}, RHS: 18}, // 3x + 2y ≤ 18
		},
	}
	s, err := lp.Solve(context.Background(), p)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: x=%.0f y=%.0f value=%.0f\n", s.Status, s.X[0], s.X[1], -s.Objective)
	// Output: optimal: x=2 y=6 value=36
}
