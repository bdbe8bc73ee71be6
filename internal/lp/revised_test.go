package lp

import (
	"errors"
	"math"
	"testing"

	"singlingout/internal/obs"
	"singlingout/internal/par"
)

// revisedOK solves p with the revised engine and checks feasibility.
func revisedOK(t *testing.T, p *Problem, warm *Basis) *Solution {
	t.Helper()
	s, err := Revised(ctx, p, warm)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	checkFeasible(t, p, s.X)
	if s.Basis == nil {
		t.Fatal("Optimal revised solve returned nil Basis")
	}
	return s
}

// TestRevisedMatchesDenseFixtures reruns the dense engine's fixture LPs
// through the revised engine and cross-checks the objectives.
func TestRevisedMatchesDenseFixtures(t *testing.T) {
	fixtures := []*Problem{
		{ // textbook production LP
			NumVars:   2,
			Objective: []float64{-3, -5},
			Constraints: []Constraint{
				dense([]float64{1, 0}, 4),
				dense([]float64{0, 2}, 12),
				dense([]float64{3, 2}, 18),
			},
		},
		{ // an equality pair and negated ≥ rows force a real phase 1
			NumVars:   2,
			Objective: []float64{1, 1},
			Constraints: []Constraint{
				dense([]float64{1, 1}, 10),
				dense([]float64{-1, -1}, -10),
				dense([]float64{-1, 0}, -3),
				dense([]float64{0, -1}, -2),
			},
		},
		{ // negative RHS keeps its orientation in the sparse form
			NumVars:   1,
			Objective: []float64{1},
			Constraints: []Constraint{
				dense([]float64{-1}, -5),
			},
		},
		{ // degenerate corner
			NumVars:   2,
			Objective: []float64{-1, -1},
			Constraints: []Constraint{
				dense([]float64{1, 0}, 0),
				dense([]float64{2, 0}, 0),
				dense([]float64{1, 1}, 3),
			},
		},
	}
	for i, p := range fixtures {
		want := solveOK(t, p)
		got := revisedOK(t, p, nil)
		if math.Abs(want.Objective-got.Objective) > 1e-6 {
			t.Errorf("fixture %d: revised objective %v, dense %v", i, got.Objective, want.Objective)
		}
	}
}

// TestRevisedRedundantRows: a duplicated equality, each copy written as
// two opposite ≤ rows; both engines must still agree on the optimum.
func TestRevisedRedundantRows(t *testing.T) {
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
	want := solveOK(t, p)
	got := revisedOK(t, p, nil)
	if math.Abs(want.Objective-got.Objective) > 1e-6 {
		t.Errorf("objective = %v, dense %v", got.Objective, want.Objective)
	}
}

func TestRevisedInfeasibleAndUnbounded(t *testing.T) {
	infeas := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Constraints: []Constraint{
			dense([]float64{1}, 1),
			dense([]float64{-1}, -2), // x >= 2
		},
	}
	s, err := Revised(ctx, infeas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
	if s.Basis != nil {
		t.Error("non-optimal solve should not return a Basis")
	}
	unb := &Problem{
		NumVars:   2,
		Objective: []float64{-1, 0},
		Constraints: []Constraint{
			dense([]float64{0, 1}, 1),
		},
	}
	s, err = Revised(ctx, unb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", s.Status)
	}
}

// vertexEnumerate brute-forces the optimum of a small LP by enumerating
// every basic point: each choice of NumVars rows from the constraint set
// plus the x_j >= 0 bounds, solved as equalities and checked for
// feasibility. It is the third, solver-free oracle of the equivalence
// property test.
func vertexEnumerate(p *Problem) (best float64, found bool) {
	n := p.NumVars
	type row struct {
		a []float64
		b float64
	}
	var rows []row
	for _, c := range p.Constraints {
		a := make([]float64, n)
		for k, j := range c.Vars {
			a[j] = c.Coeffs[k]
		}
		rows = append(rows, row{a, c.RHS})
	}
	for j := 0; j < n; j++ {
		e := make([]float64, n)
		e[j] = 1
		rows = append(rows, row{e, 0})
	}
	feasible := func(x []float64) bool {
		const eps = 1e-6
		for _, v := range x {
			if v < -eps {
				return false
			}
		}
		for _, c := range p.Constraints {
			if lhs(c, x) > c.RHS+eps {
				return false
			}
		}
		return true
	}
	// Gaussian elimination on the chosen square system.
	solveSquare := func(idx []int) ([]float64, bool) {
		a := make([][]float64, n)
		for i, ri := range idx {
			a[i] = append(append([]float64(nil), rows[ri].a...), rows[ri].b)
		}
		for col := 0; col < n; col++ {
			piv, pv := -1, 1e-9
			for r := col; r < n; r++ {
				if v := math.Abs(a[r][col]); v > pv {
					piv, pv = r, v
				}
			}
			if piv < 0 {
				return nil, false
			}
			a[col], a[piv] = a[piv], a[col]
			for r := 0; r < n; r++ {
				if r == col {
					continue
				}
				f := a[r][col] / a[col][col]
				if f == 0 {
					continue
				}
				for j := col; j <= n; j++ {
					a[r][j] -= f * a[col][j]
				}
			}
		}
		x := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = a[i][n] / a[i][i]
		}
		return x, true
	}
	best = math.Inf(1)
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			x, ok := solveSquare(idx)
			if !ok || !feasible(x) {
				return
			}
			v := 0.0
			for j, c := range p.Objective {
				v += c * x[j]
			}
			if v < best {
				best = v
			}
			found = true
			return
		}
		for i := start; i < len(rows); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best, found
}

// TestSolverEquivalenceProperty generates random small LPs — ≤, ≥ and =
// rows, the last two written as a negated ≤ row and a pair of opposite ≤
// rows, box-bounded so unboundedness is impossible — and requires the
// dense simplex, the revised simplex and brute-force vertex enumeration
// to agree on status and optimal objective.
func TestSolverEquivalenceProperty(t *testing.T) {
	const seed = 11
	for trial := 0; trial < 120; trial++ {
		rng := par.RNG(seed, trial)
		n := 1 + rng.Intn(3)
		m := 1 + rng.Intn(4)
		// A random anchor point: half the trials build rows feasible at it,
		// the other half use free RHS values (often infeasible).
		anchored := trial%2 == 0
		xStar := make([]float64, n)
		for j := range xStar {
			xStar[j] = rng.Float64() * 2
		}
		p := &Problem{NumVars: n, Objective: make([]float64, n)}
		for j := range p.Objective {
			p.Objective[j] = rng.NormFloat64()
		}
		for i := 0; i < m; i++ {
			a := make([]float64, n)
			s := 0.0
			for j := range a {
				a[j] = rng.NormFloat64()
				s += a[j] * xStar[j]
			}
			const le, ge, eq = 0, 1, 2
			rel := rng.Intn(3)
			rhs := rng.NormFloat64() * 2
			if anchored {
				switch rel {
				case le:
					rhs = s + rng.Float64()
				case ge:
					rhs = s - rng.Float64()
				case eq:
					rhs = s
				}
			}
			neg := make([]float64, n)
			for j, v := range a {
				neg[j] = -v
			}
			switch rel {
			case le:
				p.Constraints = append(p.Constraints, dense(a, rhs))
			case ge:
				p.Constraints = append(p.Constraints, dense(neg, -rhs))
			case eq:
				p.Constraints = append(p.Constraints, dense(a, rhs), dense(neg, -rhs))
			}
		}
		// Box rows rule out unboundedness, so status is Optimal/Infeasible.
		for j := 0; j < n; j++ {
			p.Constraints = append(p.Constraints, Constraint{Vars: []int{j}, Coeffs: []float64{1}, RHS: 3})
		}
		ds, err := Solve(ctx, p)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		rs, err := Revised(ctx, p, nil)
		if err != nil {
			t.Fatalf("trial %d: revised: %v", trial, err)
		}
		if ds.Status != rs.Status {
			t.Fatalf("trial %d: dense %v, revised %v", trial, ds.Status, rs.Status)
		}
		enumBest, enumFound := vertexEnumerate(p)
		switch ds.Status {
		case Optimal:
			if math.Abs(ds.Objective-rs.Objective) > 1e-5 {
				t.Fatalf("trial %d: dense obj %v, revised obj %v", trial, ds.Objective, rs.Objective)
			}
			if !enumFound {
				t.Fatalf("trial %d: solvers optimal but vertex enumeration found no feasible vertex", trial)
			}
			if math.Abs(ds.Objective-enumBest) > 1e-4 {
				t.Fatalf("trial %d: solver obj %v, vertex-enumeration obj %v", trial, ds.Objective, enumBest)
			}
			checkFeasible(t, p, ds.X)
			checkFeasible(t, p, rs.X)
		case Infeasible:
			if enumFound {
				t.Fatalf("trial %d: solvers infeasible but vertex enumeration found a feasible vertex (obj %v)", trial, enumBest)
			}
		case Unbounded:
			t.Fatalf("trial %d: box-bounded LP reported unbounded", trial)
		}
	}
}

// l1FitProblem builds the reconstruction-style L1 fitting LP for a fixed
// query matrix and the given answer vector: the constraint matrix depends
// only on the queries, the answers appear only in the RHS — exactly the
// warm-start scenario of the E02 harness.
func l1FitProblem(qRows [][]float64, answers []float64) *Problem {
	m := len(qRows)
	n := len(qRows[0])
	nv := n + m
	obj := make([]float64, nv)
	for j := n; j < nv; j++ {
		obj[j] = 1
	}
	p := &Problem{NumVars: nv, Objective: obj}
	for k, q := range qRows {
		up := make([]float64, nv)
		lo := make([]float64, nv)
		for i, v := range q {
			up[i] = v
			lo[i] = -v
		}
		up[n+k] = -1
		lo[n+k] = -1
		p.Constraints = append(p.Constraints, dense(up, answers[k]), dense(lo, -answers[k]))
	}
	for i := 0; i < n; i++ {
		p.Constraints = append(p.Constraints, Constraint{Vars: []int{i}, Coeffs: []float64{1}, RHS: 1})
	}
	return p
}

// streamFitProblem is l1FitProblem as a StreamDecoder poses it after k
// answers: the rows of the queries not yet answered are inert
// (Σx − e ≤ n and −Σx − e ≤ 0, which no x ∈ [0,1]^n violates).
func streamFitProblem(qRows [][]float64, answers []float64, k int) *Problem {
	p := l1FitProblem(qRows, answers)
	for qi := k; qi < len(qRows); qi++ {
		p.Constraints[2*qi].RHS = float64(len(qRows[0]))
		p.Constraints[2*qi+1].RHS = 0
	}
	return p
}

// TestWarmStartAfterRHSChange is the warm-start contract test: re-solving
// the same constraint matrix with a perturbed RHS from the previous basis
// must give the dense-oracle optimum with no phase 1. On the RHS change
// the warm path serves in production — one StreamDecoder.Push of an
// 8-answer chunk — it must also take fewer pivots than a cold solve.
func TestWarmStartAfterRHSChange(t *testing.T) {
	rng := par.RNG(3, 0)
	n, m := 16, 64
	qRows := make([][]float64, m)
	answers := make([]float64, m)
	truth := make([]float64, n)
	for i := range truth {
		truth[i] = float64(rng.Intn(2))
	}
	for k := range qRows {
		qRows[k] = make([]float64, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				qRows[k][i] = 1
				answers[k] += truth[i]
			}
		}
	}
	cold, err := Revised(ctx, l1FitProblem(qRows, answers), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != Optimal || cold.Basis == nil {
		t.Fatalf("cold solve: status %v", cold.Status)
	}
	if cold.Warm {
		t.Error("cold solve reported Warm")
	}
	basis := cold.Basis
	var noisy []float64
	for round := 0; round < 3; round++ {
		noisy = make([]float64, m)
		for k := range noisy {
			noisy[k] = answers[k] + rng.NormFloat64()*float64(round+1)
		}
		p := l1FitProblem(qRows, noisy)
		warm, err := Revised(ctx, p, basis)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if warm.Status != Optimal {
			t.Fatalf("round %d: status %v", round, warm.Status)
		}
		if !warm.Warm {
			t.Errorf("round %d: warm start not used", round)
		}
		if warm.Phase1Pivots != 0 {
			t.Errorf("round %d: warm solve ran %d phase-1 pivots", round, warm.Phase1Pivots)
		}
		checkFeasible(t, p, warm.X)
		oracle, err := Solve(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(warm.Objective-oracle.Objective) > 1e-4 {
			t.Errorf("round %d: warm objective %v, dense oracle %v", round, warm.Objective, oracle.Objective)
		}
		basis = warm.Basis
	}

	// Stream the last round's noisy answers in 8-answer chunks: every
	// push warm-starts from the previous push's optimum.
	const chunk = 8
	prev := revisedOK(t, streamFitProblem(qRows, noisy, chunk), nil)
	for k := 2 * chunk; k <= m; k += chunk {
		p := streamFitProblem(qRows, noisy, k)
		warm := revisedOK(t, p, prev.Basis)
		coldAgain := revisedOK(t, p, nil)
		t.Logf("answers %d: warm %d pivots, cold %d", k, warm.Pivots, coldAgain.Pivots)
		if !warm.Warm {
			t.Errorf("answers %d: warm start not used", k)
		}
		if math.Abs(warm.Objective-coldAgain.Objective) > 1e-6 {
			t.Errorf("answers %d: warm objective %v, cold %v", k, warm.Objective, coldAgain.Objective)
		}
		if warm.Pivots >= coldAgain.Pivots {
			t.Errorf("answers %d: warm solve took %d pivots, cold %d — warm start saved nothing",
				k, warm.Pivots, coldAgain.Pivots)
		}
		prev = warm
	}
}

// TestWarmStartNewObjective: a warm basis stays primal feasible when only
// the objective changes, so the warm solve restarts directly in phase 2.
func TestWarmStartNewObjective(t *testing.T) {
	p := &Problem{
		NumVars:   2,
		Objective: []float64{-3, -5},
		Constraints: []Constraint{
			dense([]float64{1, 0}, 4),
			dense([]float64{0, 2}, 12),
			dense([]float64{3, 2}, 18),
		},
	}
	first := revisedOK(t, p, nil)
	p2 := &Problem{NumVars: 2, Objective: []float64{-5, -1}, Constraints: p.Constraints}
	warm, err := Revised(ctx, p2, first.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || !warm.Warm {
		t.Fatalf("status %v warm %v, want optimal warm solve", warm.Status, warm.Warm)
	}
	oracle := solveOK(t, p2)
	if math.Abs(warm.Objective-oracle.Objective) > 1e-6 {
		t.Errorf("objective %v, dense oracle %v", warm.Objective, oracle.Objective)
	}
}

// TestWarmStartMismatch: a basis from a different constraint matrix must
// be rejected, not silently misused.
func TestWarmStartMismatch(t *testing.T) {
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			dense([]float64{1, 2}, 4),
		},
	}
	s := revisedOK(t, p, nil)
	other := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			dense([]float64{1, 3}, 4), // different coefficient
		},
	}
	if _, err := Revised(ctx, other, s.Basis); !errors.Is(err, ErrBasisMismatch) {
		t.Errorf("err = %v, want ErrBasisMismatch", err)
	}
	// Same matrix, new RHS: accepted.
	same := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			dense([]float64{1, 2}, 9),
		},
	}
	if _, err := Revised(ctx, same, s.Basis); err != nil {
		t.Errorf("same-matrix warm solve: %v", err)
	}
}

// TestWarmStartInfeasibleRHS: an RHS change can make the problem
// infeasible; the dual simplex on the warm path must detect that.
func TestWarmStartInfeasibleRHS(t *testing.T) {
	mk := func(rhs float64) *Problem {
		return &Problem{
			NumVars:   1,
			Objective: []float64{1},
			Constraints: []Constraint{
				dense([]float64{1}, 1),
				dense([]float64{-1}, rhs),
			},
		}
	}
	s := revisedOK(t, mk(0), nil)              // x >= 0: feasible
	warm, err := Revised(ctx, mk(-2), s.Basis) // x >= 2 but x <= 1: infeasible
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", warm.Status)
	}
}

// TestLUKernelsAllocateNothing: once the factorization of a basis and an
// eta file over it have been built, refactorizing it, appending etas to
// the truncated file, FTRAN and BTRAN reuse the factor's arrays — they
// run at every pivot, so an allocation there is garbage per pivot.
func TestLUKernelsAllocateNothing(t *testing.T) {
	p := reconLP(par.RNG(5, 0), 8)
	s := revisedOK(t, p, nil)
	sf := buildStandard(p)
	m := sf.m
	column := func(pos int) ([]int32, []float64) {
		c := &sf.cols[s.Basis.cols[pos]]
		return c.rows, c.vals
	}
	f := newLU(m)
	v, c, d := make([]float64, m), make([]float64, m), make([]float64, m)
	kernels := func() {
		if !f.factor(column) {
			t.Fatal("optimal basis factored as singular")
		}
		for k := 0; k < refactorEvery; k++ {
			clear(v)
			rows, vals := column(k % m)
			for i, r := range rows {
				v[r] = vals[i] * float64(k+2)
			}
			f.ftran(v, d)
			if !f.appendEta(k%m, d) {
				t.Fatalf("eta %d: pivot too small", k)
			}
			for i := range c {
				c[i] = float64(i%7) - 3
			}
			f.btran(c, v)
		}
	}
	kernels() // sizes the factors, the scratch and the eta arrays
	if allocs := testing.AllocsPerRun(20, kernels); allocs != 0 {
		t.Errorf("factor + %d × (ftran, appendEta, btran) allocated %v times, want 0", refactorEvery, allocs)
	}
}

// TestEngineKeepsFactorization is the Engine contract: a solve
// warm-started from the Basis the engine's previous solve returned reuses
// the factorization it kept (no refactorization when the basis stays
// optimal under the new RHS), reaches the optimum a one-shot Revised
// reaches from the same basis, and a cold solve on the same engine starts
// over from the slack basis.
func TestEngineKeepsFactorization(t *testing.T) {
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(wasEnabled)

	p := reconLP(par.RNG(7, 0), 12)
	en, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := en.Solve(ctx, nil)
	if err != nil || cold.Status != Optimal {
		t.Fatalf("cold solve: %v, %v", cold, err)
	}
	refactors := mRefactor.Value()
	same, err := en.Solve(ctx, cold.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if !same.Warm || same.Pivots != 0 || mRefactor.Value() != refactors {
		t.Errorf("re-solve at an unchanged RHS: warm %v, %d pivots, %d refactorizations; want a warm solve with none",
			same.Warm, same.Pivots, mRefactor.Value()-refactors)
	}
	if math.Abs(same.Objective-cold.Objective) > 1e-9 {
		t.Errorf("re-solve objective %v, first solve %v", same.Objective, cold.Objective)
	}

	basis := same.Basis
	rng := par.RNG(7, 1)
	for round := 0; round < 4; round++ {
		for r := 0; r < 2*4*12; r++ {
			p.Constraints[r].RHS += rng.Float64() - 0.5
		}
		oneShot := revisedOK(t, p, basis)
		kept, err := en.Solve(ctx, basis)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if kept.Status != Optimal || !kept.Warm {
			t.Fatalf("round %d: status %v warm %v, want an optimal warm solve", round, kept.Status, kept.Warm)
		}
		checkFeasible(t, p, kept.X)
		if math.Abs(kept.Objective-oneShot.Objective) > 1e-6 {
			t.Errorf("round %d: engine objective %v, one-shot Revised %v", round, kept.Objective, oneShot.Objective)
		}
		basis = kept.Basis
	}

	again, err := en.Solve(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Warm || again.Phase1Pivots == 0 {
		t.Errorf("cold solve on a used engine: warm %v, %d phase-1 pivots; want a cold start", again.Warm, again.Phase1Pivots)
	}
	if math.Abs(again.Objective-revisedOK(t, p, nil).Objective) > 1e-6 {
		t.Errorf("cold solve on a used engine: objective %v differs from a new engine's", again.Objective)
	}

	p.Constraints = p.Constraints[:len(p.Constraints)-1]
	if _, err := en.Solve(ctx, nil); err == nil {
		t.Error("solve after the problem lost a row should fail")
	}
}
