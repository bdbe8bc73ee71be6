package lp

import (
	"math"
	"testing"
)

// fuzzProblem decodes data into a small LP: 1–4 variables, 0–5 ≤ rows,
// and integer costs in [-4, 4], coefficients in [-4, 4] and RHS values in
// [-8, 8]. Negative costs are allowed and there are no box rows, so the
// decoded LPs are Optimal, Infeasible and Unbounded alike. Missing bytes
// read as zero.
func fuzzProblem(data []byte) *Problem {
	next := func(mod int) int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b % mod
	}
	n := 1 + next(4)
	m := next(6)
	p := &Problem{NumVars: n, Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = float64(next(9) - 4)
	}
	for i := 0; i < m; i++ {
		var c Constraint
		for j := 0; j < n; j++ {
			if a := next(9) - 4; a != 0 {
				c.Vars = append(c.Vars, j)
				c.Coeffs = append(c.Coeffs, float64(a))
			}
		}
		c.RHS = float64(next(17) - 8)
		p.Constraints = append(p.Constraints, c)
	}
	return p
}

// FuzzRevised cross-checks the revised engine against the dense tableau:
// a cold Revised solve must match Solve on status and, when Optimal, on
// the objective within 1e-6; a re-solve warm-started from its own basis
// must agree with both. The seed corpus lives in testdata/fuzz/FuzzRevised.
func FuzzRevised(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProblem(data)
		ds, err := Solve(ctx, p)
		if err != nil {
			t.Fatalf("dense: %v", err)
		}
		rs, err := Revised(ctx, p, nil)
		if err != nil {
			t.Fatalf("revised: %v", err)
		}
		if rs.Status != ds.Status {
			t.Fatalf("revised %v, dense %v", rs.Status, ds.Status)
		}
		if rs.Status != Optimal {
			return
		}
		if math.Abs(rs.Objective-ds.Objective) > 1e-6 {
			t.Fatalf("revised objective %v, dense %v", rs.Objective, ds.Objective)
		}
		checkFeasible(t, p, rs.X)
		ws, err := Revised(ctx, p, rs.Basis)
		if err != nil {
			t.Fatalf("warm revised: %v", err)
		}
		if ws.Status != Optimal || !ws.Warm {
			t.Fatalf("warm re-solve: status %v warm %v, want an optimal warm solve", ws.Status, ws.Warm)
		}
		if math.Abs(ws.Objective-ds.Objective) > 1e-6 {
			t.Fatalf("warm objective %v, dense %v", ws.Objective, ds.Objective)
		}
	})
}
