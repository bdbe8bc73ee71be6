package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// ErrBasisMismatch is returned by Revised when the warm-start Basis was
// produced on a different constraint matrix (the warm-start contract
// covers RHS and objective changes only).
var ErrBasisMismatch = errors.New("lp: warm-start basis does not match the constraint structure")

// ErrSingularBasis is returned when the engine cannot keep a numerically
// nonsingular basis factorization (indicative of a pathological instance
// or a bug).
var ErrSingularBasis = errors.New("lp: numerically singular basis")

// Basis is an opaque warm-start handle: the basic column set at the end
// of a Revised solve, tied by signature to the constraint matrix it was
// produced on. Pass it to a later Revised call over the same constraint
// matrix — same rows and coefficients; the RHS and objective may differ —
// to start from that basis instead of from scratch.
type Basis struct {
	sig  uint64
	m    int
	cols []int
}

const (
	// feasTol is the feasibility tolerance on basic variable values and
	// reduced costs in the revised engine.
	feasTol = 1e-7
	// refactorEvery bounds the eta file: after this many product-form
	// updates the basis is refactorized from scratch, restoring both
	// speed (every FTRAN/BTRAN replays the file, so its length multiplies
	// the per-pivot cost) and accuracy. The sparse refactorization is
	// cheap on the reconstruction LPs, so the file is kept short.
	refactorEvery = 24
	// dualBlandRun is the consecutive-degenerate-pivot threshold at which
	// the dual simplex switches its leaving-row choice from Dantzig (most
	// negative) to Bland's least-index rule. The primal side is protected
	// by the ε-perturbation and blandAfter, but the dual ratio test runs
	// on the unperturbed reduced costs, and on the massively degenerate
	// L1-fitting LPs a warm start that tightens many rows at once can set
	// Dantzig cycling; least-index selection (with the ratio test's
	// existing lowest-column tie-break) is provably finite.
	dualBlandRun = 256
)

// revised is the sparse revised-simplex engine state for one solve.
type revised struct {
	p  *Problem
	sf *standard
	m  int

	artSign []float64 // per-row artificial sign for this solve
	artCols []spCol   // artificial singleton columns (factor access)
	cost    []float64 // current phase objective, indexed by column id
	basis   []int     // basis position -> column id
	posOf   []int     // column id -> basis position, -1 if nonbasic
	xB      []float64 // basic variable values by position
	lu      *luFactor

	pivots       int
	phase1Pivots int
	dualPivots   int
	warm         bool

	ctx      context.Context
	pricePos int // partial-pricing cursor

	// Scratch (reused across iterations).
	rowScratch []float64 // row-indexed FTRAN/BTRAN input
	posScratch []float64 // position-indexed BTRAN input
	d          []float64 // FTRAN output (position-indexed)
	y          []float64 // BTRAN output (row-indexed)
	dualD      []float64 // dual simplex's cached nonbasic reduced costs
}

// Revised solves p with the sparse revised simplex: column-wise sparse
// constraint storage, an LU-factorized basis with product-form updates
// between periodic refactorizations, candidate-list partial pricing, and
// the same two-phase + Bland-fallback termination contract (and the same
// ε-perturbation numerical contract) as the dense Solve.
//
// warm may be nil (cold start) or the Basis of a previous Revised solve
// over the same constraint matrix. A usable warm basis skips phase 1
// entirely: if it is still primal feasible under the new RHS the solve
// resumes in phase 2, and if only dual feasible (the common case after an
// RHS change at an optimum) the engine runs the dual simplex until primal
// feasibility is restored. A warm basis that cannot be reused (singular
// under the new data, or containing artificials) falls back to a cold
// start; a basis from a *different* matrix is an ErrBasisMismatch error.
//
// The returned Solution carries the final Basis for Optimal solves. The
// context is polled before every pivot.
func Revised(ctx context.Context, p *Problem, warm *Basis) (*Solution, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	mSolves.Add(1)
	sp := mSolveNS.Span()
	defer sp.End()
	sf := buildStandard(p)
	if warm != nil && (warm.sig != sf.sig || warm.m != sf.m) {
		return nil, fmt.Errorf("%w: basis for %d rows/sig %x, matrix has %d rows/sig %x",
			ErrBasisMismatch, warm.m, warm.sig, sf.m, sf.sig)
	}
	e := newRevised(ctx, p, sf)
	sol, err := e.run(warm)
	mPivots.Add(int64(e.pivots))
	mPhase1.Add(int64(e.phase1Pivots))
	mDualPivots.Add(int64(e.dualPivots))
	if err != nil {
		return nil, err
	}
	sol.Pivots = e.pivots
	sol.Phase1Pivots = e.phase1Pivots
	sol.Warm = e.warm
	if sol.Status == Optimal {
		sol.Basis = &Basis{sig: sf.sig, m: sf.m, cols: append([]int(nil), e.basis...)}
	}
	return sol, nil
}

func newRevised(ctx context.Context, p *Problem, sf *standard) *revised {
	m := sf.m
	e := &revised{
		p:          p,
		sf:         sf,
		m:          m,
		artSign:    make([]float64, m),
		artCols:    make([]spCol, m),
		cost:       make([]float64, sf.nCols+m),
		basis:      make([]int, m),
		posOf:      make([]int, sf.nCols+m),
		xB:         make([]float64, m),
		lu:         newLU(m),
		ctx:        ctx,
		rowScratch: make([]float64, m),
		posScratch: make([]float64, m),
		d:          make([]float64, m),
		y:          make([]float64, m),
	}
	for r := 0; r < m; r++ {
		s := 1.0
		if sf.b[r] < 0 {
			s = -1
		}
		e.artSign[r] = s
		e.artCols[r] = spCol{rows: []int32{int32(r)}, vals: []float64{s}}
	}
	for j := range e.posOf {
		e.posOf[j] = -1
	}
	return e
}

func (e *revised) run(warm *Basis) (*Solution, error) {
	if warm != nil {
		sol, ok, err := e.warmPath(warm)
		if err != nil {
			return nil, err
		}
		if ok {
			return sol, nil
		}
		mWarmMiss.Add(1)
		e.resetBasis()
	}
	return e.coldPath()
}

// resetBasis clears basis bookkeeping after a failed warm attempt.
func (e *revised) resetBasis() {
	for j := range e.posOf {
		e.posOf[j] = -1
	}
	e.pricePos = 0
	e.warm = false
}

// colFor returns the sparse entries of column id j (artificials live past
// sf.nCols). Only columns below sf.nCols — structural and slack — may
// enter the basis; artificial columns never (re-)enter.
func (e *revised) colFor(j int) ([]int32, []float64) {
	if j < e.sf.nCols {
		return e.sf.cols[j].rows, e.sf.cols[j].vals
	}
	c := &e.artCols[j-e.sf.nCols]
	return c.rows, c.vals
}

func (e *revised) redCost(j int, y []float64) float64 {
	c := e.cost[j]
	rows, vals := e.colFor(j)
	for i, r := range rows {
		c -= y[r] * vals[i]
	}
	return c
}

// refactor rebuilds the LU factors from the current basis and recomputes
// the basic values from the RHS.
func (e *revised) refactor() error {
	mRefactor.Add(1)
	if !e.lu.factor(func(pos int) ([]int32, []float64) { return e.colFor(e.basis[pos]) }) {
		return ErrSingularBasis
	}
	copy(e.rowScratch, e.sf.b)
	e.lu.ftran(e.rowScratch, e.xB)
	return nil
}

func (e *revised) setPhase1Cost() {
	for j := range e.cost {
		e.cost[j] = 0
	}
	for r := 0; r < e.m; r++ {
		e.cost[e.sf.nCols+r] = 1
	}
}

func (e *revised) setPhase2Cost() {
	for j := range e.cost {
		e.cost[j] = 0
	}
	copy(e.cost, e.p.Objective)
}

// btranCost computes y = Bᵀ⁻¹ c_B into e.y.
func (e *revised) btranCost() {
	for i := 0; i < e.m; i++ {
		e.posScratch[i] = e.cost[e.basis[i]]
	}
	e.lu.btran(e.posScratch, e.y)
}

// ftranCol computes d = B⁻¹ A_q into e.d.
func (e *revised) ftranCol(q int) {
	for i := range e.rowScratch {
		e.rowScratch[i] = 0
	}
	rows, vals := e.colFor(q)
	for i, r := range rows {
		e.rowScratch[r] = vals[i]
	}
	e.lu.ftran(e.rowScratch, e.d)
}

// doPivot applies the basis exchange: entering column q replaces the
// column at basis position r; the entering variable takes value theta.
// e.d must hold B⁻¹A_q.
func (e *revised) doPivot(q, r int, theta float64) error {
	for i := 0; i < e.m; i++ {
		if d := e.d[i]; d != 0 {
			e.xB[i] -= theta * d
		}
	}
	e.xB[r] = theta
	e.posOf[e.basis[r]] = -1
	e.basis[r] = q
	e.posOf[q] = r
	e.pivots++
	if len(e.lu.etas) >= refactorEvery || !e.lu.appendEta(r, e.d) {
		return e.refactor()
	}
	return nil
}

// chooseEnteringPrimal prices nonbasic columns: candidate-list partial
// pricing (Dantzig within a rotating section) before blandAfter pivots,
// Bland's lowest-index rule after.
func (e *revised) chooseEnteringPrimal() int {
	total := e.sf.nCols
	if e.pivots >= blandAfter {
		for j := 0; j < total; j++ {
			if e.posOf[j] < 0 && e.redCost(j, e.y) < -tol {
				return j
			}
		}
		return -1
	}
	section := total / 8
	if section < 64 {
		section = 64
	}
	for scanned := 0; scanned < total; {
		best, bestVal := -1, -tol
		for k := 0; k < section && scanned < total; k++ {
			j := e.pricePos
			e.pricePos++
			if e.pricePos >= total {
				e.pricePos = 0
			}
			scanned++
			if e.posOf[j] >= 0 {
				continue
			}
			if v := e.redCost(j, e.y); v < bestVal {
				best, bestVal = j, v
			}
		}
		if best >= 0 {
			return best
		}
	}
	return -1
}

// ratioPivTol is the minimum pivot element magnitude accepted by the
// ratio tests; it sits above the eta-update stability threshold so an
// accepted pivot can always be applied.
const ratioPivTol = 1e-7

// chooseLeavingPrimal runs the primal ratio test on e.d with the same
// minimum-keeping tie-break as the dense engine (ties on ratio within tol
// break by lowest basis column id; the accepted ratio never creeps above
// the true minimum).
func (e *revised) chooseLeavingPrimal() (int, float64) {
	bestPos := -1
	bestRatio := math.Inf(1)
	for i := 0; i < e.m; i++ {
		di := e.d[i]
		if di <= ratioPivTol {
			continue
		}
		x := e.xB[i]
		if x < 0 {
			x = 0 // roundoff: degenerate, not improving
		}
		ratio := x / di
		switch {
		case ratio < bestRatio-tol:
			bestRatio, bestPos = ratio, i
		case ratio < bestRatio+tol:
			if ratio < bestRatio {
				bestRatio = ratio
			}
			if bestPos < 0 || e.basis[i] < e.basis[bestPos] {
				bestPos = i
			}
		}
	}
	return bestPos, bestRatio
}

// primal runs primal simplex iterations until optimality; phase1 solves
// cannot be unbounded.
func (e *revised) primal(phase1 bool) error {
	maxIter := 20000 + 50*(e.m+e.sf.nCols)
	for iter := 0; iter < maxIter; iter++ {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		e.btranCost()
		q := e.chooseEnteringPrimal()
		if q < 0 {
			return nil // optimal
		}
		e.ftranCol(q)
		r, theta := e.chooseLeavingPrimal()
		if r < 0 {
			if phase1 {
				return fmt.Errorf("lp: phase-1 unbounded (internal error)")
			}
			return errUnbounded
		}
		if err := e.doPivot(q, r, theta); err != nil {
			return err
		}
	}
	return ErrIterationLimit
}

// driveOutArtificials pivots zero-level basic artificials out after
// phase 1 (degenerate pivots, attributed to phase 1). It returns false if
// an artificial is stuck basic at a nonzero level (infeasible). Rows
// whose artificial admits no pivot are redundant; their artificial stays
// basic at zero, barred from ever carrying value again.
func (e *revised) driveOutArtificials() (bool, error) {
	for pos := 0; pos < e.m; pos++ {
		if e.basis[pos] < e.sf.nCols {
			continue
		}
		if math.Abs(e.xB[pos]) > feasTol {
			return false, nil
		}
		// ρ = Bᵀ⁻¹ e_pos; any nonbasic structural or slack column with
		// ρ·A_j ≠ 0 can replace the artificial in a zero-length pivot.
		for i := range e.posScratch {
			e.posScratch[i] = 0
		}
		e.posScratch[pos] = 1
		e.lu.btran(e.posScratch, e.y)
		for j := 0; j < e.sf.nCols; j++ {
			if e.posOf[j] >= 0 {
				continue
			}
			alpha := 0.0
			rows, vals := e.colFor(j)
			for i, r := range rows {
				alpha += e.y[r] * vals[i]
			}
			if math.Abs(alpha) <= ratioPivTol {
				continue
			}
			e.ftranCol(j)
			if math.Abs(e.d[pos]) <= ratioPivTol {
				continue
			}
			if err := e.doPivot(j, pos, 0); err != nil {
				return false, err
			}
			break
		}
	}
	return true, nil
}

// coldPath is the two-phase solve from the crash basis (the slack where
// the row holds at x=0, the artificial elsewhere).
func (e *revised) coldPath() (*Solution, error) {
	numArt := 0
	for r := 0; r < e.m; r++ {
		if b := e.sf.b[r]; b >= 0 {
			e.basis[r] = e.sf.nStruct + r
			e.xB[r] = b
		} else {
			e.basis[r] = e.sf.nCols + r
			e.xB[r] = -b
			numArt++
		}
		e.posOf[e.basis[r]] = r
	}
	if err := e.refactor(); err != nil {
		return nil, err
	}
	if numArt > 0 {
		e.setPhase1Cost()
		if err := e.primal(true); err != nil {
			return nil, err
		}
		infeasSum := 0.0
		for pos := 0; pos < e.m; pos++ {
			if e.basis[pos] >= e.sf.nCols {
				infeasSum += math.Abs(e.xB[pos])
			}
		}
		if infeasSum > feasTol {
			e.phase1Pivots = e.pivots
			mInfeasible.Add(1)
			return &Solution{Status: Infeasible}, nil
		}
		ok, err := e.driveOutArtificials()
		e.phase1Pivots = e.pivots
		if err != nil {
			return nil, err
		}
		if !ok {
			mInfeasible.Add(1)
			return &Solution{Status: Infeasible}, nil
		}
	}
	e.setPhase2Cost()
	if err := e.primal(false); err != nil {
		if errors.Is(err, errUnbounded) {
			mUnbounded.Add(1)
			return &Solution{Status: Unbounded}, nil
		}
		return nil, err
	}
	return e.extract(), nil
}

// warmPath attempts to reuse a prior basis. ok=false means the basis was
// structurally acceptable but numerically unusable (or contains
// artificials) — the caller falls back to a cold start.
func (e *revised) warmPath(warm *Basis) (*Solution, bool, error) {
	if len(warm.cols) != e.m {
		return nil, false, fmt.Errorf("%w: basis has %d columns for %d rows", ErrBasisMismatch, len(warm.cols), e.m)
	}
	for _, j := range warm.cols {
		if j < 0 || j >= e.sf.nCols || e.posOf[j] >= 0 {
			// Artificial or duplicated column: not reusable.
			for k := range e.posOf {
				e.posOf[k] = -1
			}
			return nil, false, nil
		}
		e.posOf[j] = 0 // mark for duplicate detection; fixed below
	}
	for i, j := range warm.cols {
		e.basis[i] = j
		e.posOf[j] = i
	}
	if err := e.refactor(); err != nil {
		if errors.Is(err, ErrSingularBasis) {
			return nil, false, nil
		}
		return nil, false, err
	}
	e.setPhase2Cost()
	primalFeasible := true
	for _, v := range e.xB {
		if v < -feasTol {
			primalFeasible = false
			break
		}
	}
	if !primalFeasible {
		// The usual warm case after an RHS change at an optimum: still
		// dual feasible, so restore primal feasibility with the dual
		// simplex instead of rerunning phase 1.
		e.refreshDualD()
		for j := 0; j < e.sf.nCols; j++ {
			if e.posOf[j] < 0 && e.dualD[j] < -feasTol {
				return nil, false, nil // neither primal nor dual feasible
			}
		}
		mWarmStarts.Add(1)
		e.warm = true
		sol, err := e.dual()
		if sol != nil || err != nil {
			return sol, true, err
		}
	} else {
		mWarmStarts.Add(1)
		e.warm = true
	}
	for i, v := range e.xB {
		if v < 0 {
			e.xB[i] = 0
		}
	}
	if err := e.primal(false); err != nil {
		if errors.Is(err, errUnbounded) {
			mUnbounded.Add(1)
			return &Solution{Status: Unbounded}, true, nil
		}
		return nil, false, err
	}
	return e.extract(), true, nil
}

// refreshDualD recomputes the full nonbasic reduced-cost vector e.dualD
// from scratch (one BTRAN plus one pass over A). The dual simplex keeps
// it incrementally updated between refactorizations.
func (e *revised) refreshDualD() {
	if e.dualD == nil {
		e.dualD = make([]float64, e.sf.nCols)
	}
	e.btranCost()
	for j := 0; j < e.sf.nCols; j++ {
		if e.posOf[j] < 0 {
			e.dualD[j] = e.redCost(j, e.y)
		} else {
			e.dualD[j] = 0
		}
	}
}

// dual runs dual simplex pivots until primal feasibility. It returns a
// non-nil Solution only for a definitive terminal status (Infeasible).
// e.dualD must be fresh (refreshDualD) on entry; each iteration costs one
// BTRAN (the pivot row), one FTRAN (the entering column) and one pass
// over A, with reduced costs updated in place from the pivot row.
func (e *revised) dual() (*Solution, error) {
	maxIter := 20000 + 50*(e.m+e.sf.nCols)
	alpha := make([]float64, e.sf.nCols)
	degenRun := 0 // consecutive pivots with no dual-objective progress
	for iter := 0; iter < maxIter; iter++ {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		// Leaving row: most negative basic value, or — after a degenerate
		// run long enough to suggest cycling — the infeasible row whose
		// basic variable has the lowest column id (Bland).
		r := -1
		if degenRun >= dualBlandRun {
			for i := 0; i < e.m; i++ {
				if e.xB[i] < -feasTol && (r < 0 || e.basis[i] < e.basis[r]) {
					r = i
				}
			}
		} else {
			worst := -feasTol
			for i := 0; i < e.m; i++ {
				if e.xB[i] < worst {
					worst, r = e.xB[i], i
				}
			}
		}
		if r < 0 {
			return nil, nil // primal feasible — optimal after drift check
		}
		// ρ = Bᵀ⁻¹ e_r gives row r of B⁻¹A; the ratio test runs on the
		// cached reduced costs against that row.
		for i := range e.posScratch {
			e.posScratch[i] = 0
		}
		e.posScratch[r] = 1
		e.lu.btran(e.posScratch, e.y)
		leaveCol := e.basis[r]
		q := -1
		bestRatio := math.Inf(1)
		for j := 0; j < e.sf.nCols; j++ {
			if e.posOf[j] >= 0 {
				alpha[j] = 0
				continue
			}
			a := 0.0
			rows, vals := e.colFor(j)
			for i, rr := range rows {
				a += e.y[rr] * vals[i]
			}
			alpha[j] = a
			if a >= -ratioPivTol {
				continue
			}
			dj := e.dualD[j]
			if dj < 0 {
				dj = 0 // clamp drift: dual feasibility is an invariant here
			}
			ratio := dj / -a
			if ratio < bestRatio-tol || (ratio < bestRatio+tol && (q < 0 || j < q)) {
				if ratio < bestRatio {
					bestRatio = ratio
				}
				q = j
			}
		}
		if q < 0 {
			// Dual unbounded: the primal is infeasible under the new RHS.
			mInfeasible.Add(1)
			return &Solution{Status: Infeasible}, nil
		}
		if bestRatio > tol {
			degenRun = 0
		} else {
			degenRun++
		}
		e.ftranCol(q)
		if math.Abs(e.d[r]) <= luMinPivot {
			if err := e.refactor(); err != nil {
				return nil, err
			}
			e.refreshDualD()
			continue
		}
		theta := e.xB[r] / e.d[r]
		// Reduced-cost update from the pivot row: d_j ← d_j − (d_q/α_q)·α_j
		// for nonbasic j; the leaving variable re-enters the nonbasic set
		// with cost −d_q/α_q.
		thetaD := e.dualD[q] / alpha[q]
		e.dualPivots++
		if err := e.doPivot(q, r, theta); err != nil {
			return nil, err
		}
		if len(e.lu.etas) == 0 {
			// doPivot refactorized: resync the cache instead of updating it.
			e.refreshDualD()
			continue
		}
		for j := 0; j < e.sf.nCols; j++ {
			if aj := alpha[j]; aj != 0 && e.posOf[j] < 0 {
				e.dualD[j] -= thetaD * aj
			}
		}
		e.dualD[q] = 0
		e.dualD[leaveCol] = -thetaD // the warm path admits no artificial
	}
	return nil, ErrIterationLimit
}

func (e *revised) extract() *Solution {
	x := make([]float64, e.sf.nStruct)
	for pos, j := range e.basis {
		if j < e.sf.nStruct {
			x[j] = e.xB[pos]
		}
	}
	obj := 0.0
	for j, c := range e.p.Objective {
		obj += c * x[j]
	}
	return &Solution{Status: Optimal, X: x, Objective: obj}
}
