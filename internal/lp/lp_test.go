package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

var ctx = context.Background()

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := Solve(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	checkFeasible(t, p, s.X)
	return s
}

// dense builds the row coeffs·x ≤ rhs from a dense coefficient slice,
// keeping its nonzero entries.
func dense(coeffs []float64, rhs float64) Constraint {
	c := Constraint{RHS: rhs}
	for j, v := range coeffs {
		if v != 0 {
			c.Vars = append(c.Vars, j)
			c.Coeffs = append(c.Coeffs, v)
		}
	}
	return c
}

// lhs evaluates the left-hand side of row c at x.
func lhs(c Constraint, x []float64) float64 {
	v := 0.0
	for k, j := range c.Vars {
		v += c.Coeffs[k] * x[j]
	}
	return v
}

// checkFeasible verifies x ≥ 0 and all constraints within the documented
// feasibility slack of Solve.
func checkFeasible(t *testing.T, p *Problem, x []float64) {
	t.Helper()
	const eps = 2e-5
	for j, v := range x {
		if v < -eps {
			t.Fatalf("x[%d] = %v < 0", j, v)
		}
	}
	for i, c := range p.Constraints {
		if v := lhs(c, x); v > c.RHS+eps {
			t.Fatalf("constraint %d violated: %v > %v", i, v, c.RHS)
		}
	}
}

func TestTextbookLP(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → (2, 6), value 36.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{-3, -5},
		Constraints: []Constraint{
			dense([]float64{1, 0}, 4),
			dense([]float64{0, 2}, 12),
			dense([]float64{3, 2}, 18),
		},
	}
	s := solveOK(t, p)
	if math.Abs(s.X[0]-2) > 1e-7 || math.Abs(s.X[1]-6) > 1e-7 {
		t.Errorf("x = %v, want (2,6)", s.X)
	}
	if math.Abs(s.Objective+36) > 1e-7 {
		t.Errorf("objective = %v, want -36", s.Objective)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min x + y s.t. x + y = 10, x >= 3, y >= 2 → objective 10. The
	// equality is a pair of opposite ≤ rows and each ≥ row is negated.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			dense([]float64{1, 1}, 10),
			dense([]float64{-1, -1}, -10),
			dense([]float64{-1, 0}, -3),
			dense([]float64{0, -1}, -2),
		},
	}
	s := solveOK(t, p)
	if math.Abs(s.Objective-10) > 1e-7 {
		t.Errorf("objective = %v, want 10", s.Objective)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -5  (i.e. x >= 5).
	p := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Constraints: []Constraint{
			dense([]float64{-1}, -5),
		},
	}
	s := solveOK(t, p)
	if math.Abs(s.X[0]-5) > 1e-7 {
		t.Errorf("x = %v, want 5", s.X[0])
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Constraints: []Constraint{
			dense([]float64{1}, 1),
			dense([]float64{-1}, -2), // x >= 2
		},
	}
	s, err := Solve(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x with only x >= 0: unbounded below.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{-1, 0},
		Constraints: []Constraint{
			dense([]float64{0, 1}, 1),
		},
	}
	s, err := Solve(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", s.Status)
	}
}

func TestDegenerateLP(t *testing.T) {
	// A classic degenerate corner: redundant constraints meeting at origin.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{-1, -1},
		Constraints: []Constraint{
			dense([]float64{1, 0}, 0),
			dense([]float64{2, 0}, 0),
			dense([]float64{1, 1}, 3),
		},
	}
	s := solveOK(t, p)
	if math.Abs(s.Objective+3) > 1e-7 {
		t.Errorf("objective = %v, want -3", s.Objective)
	}
}

func TestRedundantEquality(t *testing.T) {
	// A duplicated equality x + y = 4, each copy written as two opposite ≤
	// rows: the solver must still find the optimum of the redundant system.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 2},
		Constraints: []Constraint{
			dense([]float64{1, 1}, 4),
			dense([]float64{-1, -1}, -4),
			dense([]float64{1, 1}, 4),
			dense([]float64{-1, -1}, -4),
			dense([]float64{1, 0}, 3),
		},
	}
	s := solveOK(t, p)
	// Optimum pushes x up to its cap: (3,1) with value 5.
	if math.Abs(s.Objective-5) > 1e-7 {
		t.Errorf("objective = %v, want 5", s.Objective)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Solve(ctx, &Problem{NumVars: 0}); err == nil {
		t.Error("zero vars should fail")
	}
	if _, err := Solve(ctx, &Problem{NumVars: 2, Objective: []float64{1}}); err == nil {
		t.Error("objective width mismatch should fail")
	}
	for name, c := range map[string]Constraint{
		"length mismatch": {Vars: []int{0, 1}, Coeffs: []float64{1}, RHS: 1},
		"negative index":  {Vars: []int{-1}, Coeffs: []float64{1}, RHS: 1},
		"index past end":  {Vars: []int{2}, Coeffs: []float64{1}, RHS: 1},
		"repeated index":  {Vars: []int{1, 0, 1}, Coeffs: []float64{1, 1, 1}, RHS: 1},
	} {
		p := &Problem{NumVars: 2, Objective: []float64{1, 1},
			Constraints: []Constraint{dense([]float64{1, 1}, 3), c}}
		if _, err := Solve(ctx, p); err == nil {
			t.Errorf("%s: Solve should fail", name)
		}
		if _, err := Revised(ctx, p, nil); err == nil {
			t.Errorf("%s: Revised should fail", name)
		}
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Error("status strings wrong")
	}
	if Status(9).String() == "" {
		t.Error("unknown status should render")
	}
}

// TestL1Regression exercises the exact formulation the reconstruction
// attack uses: fit x to noisy subset sums by minimizing total slack.
func TestL1Regression(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, m := 12, 60
	truth := make([]float64, n)
	for i := range truth {
		truth[i] = float64(rng.Intn(2))
	}
	// Variables: x_0..x_{n-1}, e_0..e_{m-1}. Minimize Σe.
	nv := n + m
	obj := make([]float64, nv)
	for j := n; j < nv; j++ {
		obj[j] = 1
	}
	var cons []Constraint
	for k := 0; k < m; k++ {
		row := make([]float64, nv)
		sum := 0.0
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				row[i] = 1
				sum += truth[i]
			}
		}
		a := sum + (rng.Float64()-0.5)*0.4 // small noise
		// a - Σx <= e  and  Σx - a <= e
		up := make([]float64, nv)
		copy(up, row)
		up[n+k] = -1
		cons = append(cons, dense(up, a))
		lo := make([]float64, nv)
		for i := 0; i < n; i++ {
			lo[i] = -row[i]
		}
		lo[n+k] = -1
		cons = append(cons, dense(lo, -a))
	}
	// x_i <= 1.
	for i := 0; i < n; i++ {
		cons = append(cons, Constraint{Vars: []int{i}, Coeffs: []float64{1}, RHS: 1})
	}
	s := solveOK(t, &Problem{NumVars: nv, Objective: obj, Constraints: cons})
	// Rounding the LP solution should recover most of the truth.
	wrong := 0
	for i := 0; i < n; i++ {
		r := 0.0
		if s.X[i] >= 0.5 {
			r = 1
		}
		if r != truth[i] {
			wrong++
		}
	}
	if wrong > 1 {
		t.Errorf("L1 regression recovered with %d/%d errors", wrong, n)
	}
}

// TestRandomLPsAgainstFeasiblePoints: the solver's optimum must never be
// worse than any sampled feasible point (a cheap but strong correctness
// property on random instances).
func TestRandomLPsAgainstFeasiblePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		m := 2 + rng.Intn(5)
		p := &Problem{NumVars: n, Objective: make([]float64, n)}
		for j := range p.Objective {
			p.Objective[j] = rng.NormFloat64()
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = math.Abs(rng.NormFloat64()) // nonneg coeffs keep it bounded
			}
			p.Constraints = append(p.Constraints, dense(row, 1+rng.Float64()*5))
		}
		// Make the problem bounded even for negative objective entries.
		for j := 0; j < n; j++ {
			p.Constraints = append(p.Constraints, Constraint{Vars: []int{j}, Coeffs: []float64{1}, RHS: 10})
		}
		s, err := Solve(ctx, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, s.Status)
		}
		checkFeasible(t, p, s.X)
		// Sample random feasible points by scaling random directions.
		for probe := 0; probe < 200; probe++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = rng.Float64() * 10
			}
			feasible := true
			for _, c := range p.Constraints {
				if lhs(c, x) > c.RHS {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			val := 0.0
			for j, cj := range p.Objective {
				val += cj * x[j]
			}
			if val < s.Objective-1e-6 {
				t.Fatalf("trial %d: feasible point beats 'optimum': %v < %v", trial, val, s.Objective)
			}
		}
	}
}

func TestZeroConstraintLP(t *testing.T) {
	// min x with no constraints: optimum at x = 0.
	p := &Problem{NumVars: 1, Objective: []float64{1}}
	s := solveOK(t, p)
	if s.X[0] != 0 {
		t.Errorf("x = %v, want 0", s.X[0])
	}
}

// TestSolutionPivots checks the solver reports its pivot counts, with
// the feasibility search's share in Phase1Pivots.
func TestSolutionPivots(t *testing.T) {
	// Negated ≥ rows (negative RHS) force a genuine phase 1.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			dense([]float64{-1, 0}, -1),
			dense([]float64{0, -1}, -2),
			dense([]float64{1, 1}, 10),
		},
	}
	s := solveOK(t, p)
	if s.Pivots <= 0 {
		t.Errorf("Pivots = %d, want positive", s.Pivots)
	}
	if s.Phase1Pivots <= 0 || s.Phase1Pivots > s.Pivots {
		t.Errorf("Phase1Pivots = %d out of range (total %d)", s.Phase1Pivots, s.Pivots)
	}
}
