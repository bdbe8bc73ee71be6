// Package lp is a self-contained linear-programming solver suite. It
// replaces the commercial LP solvers (CPLEX/Gurobi) used by the
// linear-program reconstruction attacks the paper surveys ([13], [18],
// [24]) at the scale of this repository's experiments.
//
// Two engines share one Problem type, one status vocabulary and one
// numerical contract (Bland anti-cycling fallback, deterministic
// ε-perturbation of the RHS):
//
//   - Solve is the dense tableau simplex — two-phase primal simplex over
//     artificials, simple, O(m·n) per pivot, and the test oracle for the
//     sparse engine.
//   - Revised is the sparse revised simplex — column-wise sparse storage,
//     an LU-factorized basis with product-form (eta-file) updates between
//     periodic refactorizations, candidate-list partial pricing, and a
//     warm-start API: it returns an opaque Basis, and a follow-up solve
//     over the same constraint matrix with a new RHS and/or objective
//     restarts from it (dual simplex when only the RHS moved). A cold
//     solve starts from the all-slack basis and reaches primal
//     feasibility with the same dual simplex, on costs shifted to be
//     nonnegative and deterministically perturbed; it needs no
//     artificial columns. The dual simplex picks its leaving row by dual
//     Devex pricing (largest x_i²/w_i over the infeasible rows, with
//     reference weights w updated in O(m) per pivot).
//
// The revised engine's kernels do work proportional to nonzeros. The
// dual simplex computes its pivot row α = ρᵀA row-wise, from a row-wise
// copy of A, over the rows where ρ is nonzero (about an eighth of them on
// the decoding LPs), and runs its ratio test and reduced-cost update over
// only the columns that row reaches. The refactorization applies the
// earlier L columns through a bitset of the elimination positions a
// column reaches and orders the columns by counting sort. L, U and the
// eta file live in flat arrays with start offsets, sized when the Engine
// is built. Every one of these keeps the per-entry order of the floating
// point operations of a dense pass, so the pivots, the bases and the
// solutions are the same as theirs bit for bit.
//
// Revised is the one-shot form of an Engine: the workspace of one
// constraint matrix — standard form, LU and eta arrays, scratch vectors —
// built once by NewEngine and reused by every Engine.Solve, which re-reads
// the Problem's RHS and objective. A solve warm-started from the Basis the
// engine's previous solve returned resumes from the factorization the
// engine kept, with one FTRAN for the new basic values and no
// refactorization; recon.Decoder keeps one Engine for its query set.
//
// Problems have one shape, the one LP decoding poses: minimize c·x over
// x ≥ 0 subject to sparse rows Σ_k Coeffs[k]·x[Vars[k]] ≤ RHS. A ≥ row is
// a negated ≤ row and an equality is a pair of opposite ≤ rows; an upper
// bound x_j ≤ u is the one-entry row {Vars: [j], Coeffs: [1], RHS: u}.
// Both engines poll the context before every pivot.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"singlingout/internal/obs"
)

// Constraint is one sparse row Σ_k Coeffs[k]·x[Vars[k]] ≤ RHS. Vars
// holds distinct variable indices; variables it omits have coefficient 0.
type Constraint struct {
	Vars   []int
	Coeffs []float64 // parallel to Vars
	RHS    float64
}

// Problem is a minimization LP over x ≥ 0 subject to ≤ rows.
type Problem struct {
	NumVars     int
	Objective   []float64 // length NumVars; minimized
	Constraints []Constraint
}

// Status describes the outcome of Solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of a successful Solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	// Pivots is the total number of simplex pivots performed (both
	// phases); Phase1Pivots is the share a cold solve spends before its
	// first primal feasible basis: artificial-variable pivots in Solve,
	// dual simplex pivots from the slack basis in Revised (which count in
	// lp.dual_pivots too). A warm Revised solve has none.
	Pivots       int
	Phase1Pivots int
	// Basis is the warm-start handle for Optimal solves of the Revised
	// engine (nil from the dense Solve): pass it to a later Revised call
	// or Engine.Solve over the same constraint matrix. Warm reports
	// whether this solve actually reused a caller-provided basis.
	Basis *Basis
	Warm  bool
}

// Metrics recorded into obs.Default() by both engines. lp.pivots counts
// every simplex pivot across both phases — the paper's "solver
// iterations" cost of an LP reconstruction attack. lp.refactorizations
// counts basis LU (re)factorizations in the revised engine;
// lp.warm_starts counts revised solves that reused a caller-provided
// basis (lp.warm_miss counts the ones that had to fall back cold), and
// lp.dual_pivots the dual-simplex share of the revised engine's pivots,
// cold and warm. lp.phase1_pivots counts the pivots cold solves spend
// reaching their first primal feasible basis.
var (
	mSolves     = obs.Default().Counter("lp.solves")
	mPivots     = obs.Default().Counter("lp.pivots")
	mPhase1     = obs.Default().Counter("lp.phase1_pivots")
	mInfeasible = obs.Default().Counter("lp.infeasible")
	mUnbounded  = obs.Default().Counter("lp.unbounded")
	mSolveNS    = obs.Default().Histogram("lp.solve_ns")
	mRefactor   = obs.Default().Counter("lp.refactorizations")
	mWarmStarts = obs.Default().Counter("lp.warm_starts")
	mWarmMiss   = obs.Default().Counter("lp.warm_miss")
	mDualPivots = obs.Default().Counter("lp.dual_pivots")
)

// ErrIterationLimit is returned when the simplex fails to terminate within
// its iteration budget (indicative of severe degeneracy or a bug).
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

const (
	tol = 1e-9
	// blandAfter switches to Bland's rule after this many Dantzig pivots
	// to guarantee termination on degenerate problems. The ε-perturbation
	// makes cycling essentially impossible, so this is a deep backstop;
	// switching early would trade Dantzig's fast convergence for Bland's
	// glacial one.
	blandAfter = 200000
	// perturb is the per-row scale of the deterministic ε-perturbation
	// applied to the RHS to break the massive degeneracy of L1-fitting
	// LPs. Row r is relaxed by perturb·(r+1), so with up to ~1000 rows the
	// returned point may violate original constraints by at most ~1e-5 —
	// the feasibility slack documented on Solve.
	perturb = 1e-8
)

// Solve runs the two-phase dense tableau simplex. It returns a Solution
// whose Status is Optimal, Infeasible or Unbounded; X and Objective are
// meaningful only for Optimal. The context is polled before every pivot;
// cancellation aborts the solve with ctx.Err().
//
// Numerical contract: the solver internally relaxes each row by a tiny
// anti-degeneracy perturbation, so the returned point may violate the
// stated constraints by up to ~1e-5 (for problems with up to ~1000 rows).
func Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	mSolves.Add(1)
	sp := mSolveNS.Span()
	defer sp.End()
	t := newTableau(p)
	t.ctx = ctx
	phase1Pivots := 0
	defer func() {
		mPivots.Add(int64(t.pivots))
		mPhase1.Add(int64(phase1Pivots))
	}()
	done := func(s *Solution) *Solution {
		s.Pivots = t.pivots
		s.Phase1Pivots = phase1Pivots
		return s
	}
	// Phase 1: minimize the sum of artificials to find a feasible basis.
	if t.numArt > 0 {
		t.setPhase1Objective()
		if err := t.iterate(true); err != nil {
			return nil, err
		}
		if t.rhs(t.m) < -tol { // phase-1 objective value is -row value
			phase1Pivots = t.pivots
			mInfeasible.Add(1)
			return done(&Solution{Status: Infeasible}), nil
		}
		// Pivots spent driving zero-level artificials out of the basis are
		// part of the feasibility search: snapshot the phase-1 share after
		// them, so they are attributed to phase 1 (not silently lumped into
		// the phase-2 remainder).
		ok := t.driveOutArtificials()
		phase1Pivots = t.pivots
		if !ok {
			// Artificial stuck basic at nonzero level: infeasible.
			mInfeasible.Add(1)
			return done(&Solution{Status: Infeasible}), nil
		}
	}
	// Phase 2: original objective.
	t.setPhase2Objective(p.Objective)
	if err := t.iterate(false); err != nil {
		if errors.Is(err, errUnbounded) {
			mUnbounded.Add(1)
			return done(&Solution{Status: Unbounded}), nil
		}
		return nil, err
	}
	x := make([]float64, p.NumVars)
	for r := 0; r < t.m; r++ {
		if v := t.basis[r]; v < p.NumVars {
			x[v] = t.rhs(r)
		}
	}
	obj := 0.0
	for j, c := range p.Objective {
		obj += c * x[j]
	}
	return done(&Solution{Status: Optimal, X: x, Objective: obj}), nil
}

func validate(p *Problem) error {
	if p.NumVars <= 0 {
		return fmt.Errorf("lp: NumVars = %d, want positive", p.NumVars)
	}
	if len(p.Objective) != p.NumVars {
		return fmt.Errorf("lp: objective length %d != NumVars %d", len(p.Objective), p.NumVars)
	}
	lastRow := make([]int, p.NumVars) // 1 + the last row naming each variable
	for i, c := range p.Constraints {
		if len(c.Vars) != len(c.Coeffs) {
			return fmt.Errorf("lp: constraint %d has %d vars but %d coefficients", i, len(c.Vars), len(c.Coeffs))
		}
		for _, j := range c.Vars {
			if j < 0 || j >= p.NumVars {
				return fmt.Errorf("lp: constraint %d variable %d outside [0, %d)", i, j, p.NumVars)
			}
			if lastRow[j] == i+1 {
				return fmt.Errorf("lp: constraint %d repeats variable %d", i, j)
			}
			lastRow[j] = i + 1
		}
	}
	return nil
}

var errUnbounded = errors.New("lp: unbounded")

// tableau is the dense simplex tableau. Rows 0..m-1 are constraints; row m
// is the objective row. Columns 0..total-1 are variables (structural,
// then one slack or surplus per row, then artificial); column total is the
// RHS.
type tableau struct {
	m, numArt int
	total     int // structural + slack + artificial columns
	a         [][]float64
	basis     []int
	artStart  int // first artificial column
	pivots    int
	ctx       context.Context
}

func newTableau(p *Problem) *tableau {
	m := len(p.Constraints)
	numArt := 0
	for _, c := range p.Constraints {
		if c.RHS < 0 {
			numArt++
		}
	}
	t := &tableau{
		m:        m,
		numArt:   numArt,
		total:    p.NumVars + m + numArt,
		basis:    make([]int, m),
		artStart: p.NumVars + m,
	}
	t.a = make([][]float64, m+1)
	for r := range t.a {
		t.a[r] = make([]float64, t.total+1)
	}
	artCol := t.artStart
	for r, c := range p.Constraints {
		row := t.a[r]
		slackCol := p.NumVars + r
		sign := 1.0
		t.basis[r] = slackCol
		if c.RHS < 0 {
			// The row is negated so the RHS column starts nonnegative: its
			// slack becomes a surplus and an artificial is its starting
			// basic variable.
			sign = -1
			row[artCol] = 1
			t.basis[r] = artCol
			artCol++
		}
		for k, j := range c.Vars {
			row[j] = sign * c.Coeffs[k]
		}
		row[slackCol] = sign
		// ε-perturbation: strictly increasing tiny offsets keep basic
		// solutions nondegenerate, preventing simplex stalling/cycling. The
		// RHS only grows, so the perturbed feasible region contains the
		// original one.
		row[t.total] = sign * (c.RHS + perturb*float64(r+1))
		if row[t.total] < 0 {
			row[t.total] = 0
		}
	}
	return t
}

func (t *tableau) rhs(r int) float64 { return t.a[r][t.total] }

// setPhase1Objective loads the objective "minimize sum of artificials",
// expressed in terms of the current (artificial) basis.
func (t *tableau) setPhase1Objective() {
	obj := t.a[t.m]
	for j := range obj {
		obj[j] = 0
	}
	for j := t.artStart; j < t.total; j++ {
		obj[j] = 1
	}
	// Zero the reduced costs of basic artificials by subtracting their rows.
	for r := 0; r < t.m; r++ {
		if t.basis[r] >= t.artStart {
			for j := 0; j <= t.total; j++ {
				obj[j] -= t.a[r][j]
			}
		}
	}
}

// setPhase2Objective loads the original objective, priced out against the
// current basis, and blocks artificial columns from re-entering by making
// them prohibitively expensive.
func (t *tableau) setPhase2Objective(c []float64) {
	obj := t.a[t.m]
	for j := range obj {
		obj[j] = 0
	}
	copy(obj, c)
	for r := 0; r < t.m; r++ {
		b := t.basis[r]
		coef := obj[b]
		if coef == 0 {
			continue
		}
		for j := 0; j <= t.total; j++ {
			obj[j] -= coef * t.a[r][j]
		}
	}
	// Artificial columns must never re-enter.
	for j := t.artStart; j < t.total; j++ {
		if !t.isBasic(j) {
			obj[j] = math.Inf(1)
		}
	}
}

func (t *tableau) isBasic(col int) bool {
	for _, b := range t.basis {
		if b == col {
			return true
		}
	}
	return false
}

// iterate runs simplex pivots until optimality. In phase 1 (phase1 true)
// unboundedness cannot occur; in phase 2 it is reported via errUnbounded.
func (t *tableau) iterate(phase1 bool) error {
	maxIter := 20000 + 50*(t.m+t.total)
	for iter := 0; iter < maxIter; iter++ {
		// A degenerate multi-second solve must honor the ctx threaded
		// through every harness, not just return eventually.
		if err := t.ctx.Err(); err != nil {
			return err
		}
		col := t.chooseEntering()
		if col < 0 {
			return nil // optimal
		}
		row := t.chooseLeaving(col)
		if row < 0 {
			if phase1 {
				return fmt.Errorf("lp: phase-1 unbounded (internal error)")
			}
			return errUnbounded
		}
		t.pivot(row, col)
	}
	return ErrIterationLimit
}

// chooseEntering picks the entering column: most negative reduced cost
// (Dantzig), or the lowest-index negative one after blandAfter pivots.
func (t *tableau) chooseEntering() int {
	obj := t.a[t.m]
	if t.pivots >= blandAfter {
		for j := 0; j < t.total; j++ {
			if obj[j] < -tol && !math.IsInf(obj[j], 1) {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -tol
	for j := 0; j < t.total; j++ {
		if v := obj[j]; v < bestVal && !math.IsInf(v, 1) {
			best, bestVal = j, v
		}
	}
	return best
}

// chooseLeaving runs the ratio test on the entering column; ties break by
// lowest basis index (lexicographic-ish, pairs with Bland). Tie-breaking
// never moves bestRatio upward: a row within tol of the current best used
// to overwrite it with its own (larger) ratio, so a chain of pairwise
// ties could creep the accepted ratio #ties×tol above the true minimum
// and push RHS entries negative past the roundoff clamp.
func (t *tableau) chooseLeaving(col int) int {
	bestRow := -1
	bestRatio := math.Inf(1)
	for r := 0; r < t.m; r++ {
		a := t.a[r][col]
		if a <= tol {
			continue
		}
		ratio := t.rhs(r) / a
		if ratio < 0 {
			// Tiny negative RHS from roundoff: treat as a zero-ratio
			// (degenerate) pivot rather than an improving one.
			ratio = 0
		}
		switch {
		case ratio < bestRatio-tol:
			bestRatio, bestRow = ratio, r
		case ratio < bestRatio+tol:
			// A tie within tol: keep the minimum ratio seen so far and
			// break the tie on basis index only.
			if ratio < bestRatio {
				bestRatio = ratio
			}
			if bestRow < 0 || t.basis[r] < t.basis[bestRow] {
				bestRow = r
			}
		}
	}
	return bestRow
}

func (t *tableau) pivot(row, col int) {
	t.pivots++
	piv := t.a[row][col]
	invPiv := 1 / piv
	rowData := t.a[row]
	for j := 0; j <= t.total; j++ {
		rowData[j] *= invPiv
	}
	for r := 0; r <= t.m; r++ {
		if r == row {
			continue
		}
		factor := t.a[r][col]
		if factor == 0 || math.IsInf(factor, 0) {
			continue
		}
		dst := t.a[r]
		for j := 0; j <= t.total; j++ {
			dst[j] -= factor * rowData[j]
		}
		dst[col] = 0 // enforce exact zero against roundoff
	}
	t.basis[row] = col
}

// driveOutArtificials pivots any artificial variable still basic at level
// zero out of the basis. It returns false if an artificial is basic at a
// nonzero level (the problem is infeasible).
func (t *tableau) driveOutArtificials() bool {
	for r := 0; r < t.m; r++ {
		if t.basis[r] < t.artStart {
			continue
		}
		if math.Abs(t.rhs(r)) > 1e-7 {
			return false
		}
		// Find any non-artificial column with a nonzero entry to pivot in.
		pivoted := false
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.a[r][j]) > 1e-7 && !t.isBasic(j) {
				t.pivot(r, j)
				pivoted = true
				break
			}
		}
		// If no pivot exists the row is redundant (all zeros); leaving the
		// zero-level artificial basic is harmless because phase 2 bars
		// artificials from carrying value.
		_ = pivoted
	}
	return true
}
