package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// ErrBasisMismatch is returned by Revised and Engine.Solve when the
// warm-start Basis was produced on a different constraint matrix (the
// warm-start contract covers RHS and objective changes only).
var ErrBasisMismatch = errors.New("lp: warm-start basis does not match the constraint structure")

// ErrSingularBasis is returned when the engine cannot keep a numerically
// nonsingular basis factorization (indicative of a pathological instance
// or a bug).
var ErrSingularBasis = errors.New("lp: numerically singular basis")

// Basis is an opaque warm-start handle: the basic column set at the end
// of a Revised solve, tied by signature to the constraint matrix it was
// produced on. Pass it to a later Revised call or Engine.Solve over the
// same constraint matrix — same rows and coefficients; the RHS and
// objective may differ — to start from that basis instead of from
// scratch.
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
	// the dual simplex switches its leaving-row choice from Devex pricing
	// to Bland's least-index rule. The dual ratio test runs on
	// costs perturbed by costPerturbation, which breaks the ties of the
	// massively dual degenerate L1-fitting LPs; least-index selection
	// (with the ratio test's existing lowest-column tie-break) is the
	// provably finite backstop should a plateau survive it.
	dualBlandRun = 256
)

// Engine is the revised simplex's workspace for one constraint matrix:
// the sparse standard form, the LU factor and eta arrays, the scratch
// vectors, and the basis (with its factorization) of the last Optimal
// solve. Between solves the caller may rewrite the RHS of the Problem's
// rows and the values of its objective in place; the rows' variables and
// coefficients, and the number of rows and variables, are fixed when the
// Engine is built.
//
// A solve warm-started from the Basis the Engine's previous solve
// returned skips the refactorization: it computes the basic values under
// the new RHS with one FTRAN through the factorization it kept. A solve
// allocates only the Solution it returns. An Engine is not safe for
// concurrent use.
type Engine struct {
	p  *Problem
	sf *standard
	m  int

	cost  []float64 // current phase objective, indexed by column id
	basis []int     // basis position -> column id
	posOf []int     // column id -> basis position, -1 if nonbasic
	xB    []float64 // basic variable values by position
	lu    *luFactor
	// factored reports that lu factors the current basis (with its eta
	// file) and that the basis is the one the last solve returned.
	factored bool

	// Per-solve state.
	pivots       int
	phase1Pivots int
	dualPivots   int
	warm         bool
	ctx          context.Context
	pricePos     int // partial-pricing cursor

	// Scratch (reused across iterations and solves).
	rowScratch []float64 // row-indexed FTRAN/BTRAN input
	posScratch []float64 // position-indexed BTRAN input
	d          []float64 // FTRAN output (position-indexed)
	y          []float64 // BTRAN output (row-indexed)
	dualD      []float64 // dual simplex's cached nonbasic reduced costs
	alpha      []float64 // dual simplex's pivot row of B⁻¹A, zero outside alphaSet
	alphaSet   []uint64  // bitset of the columns alpha holds entries for
	devex      []float64 // dual simplex's Devex reference weights, by position
}

// NewEngine validates p and builds the engine's workspace for its
// constraint matrix. The Engine keeps p and re-reads its RHS and
// objective at every Solve.
func NewEngine(p *Problem) (*Engine, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	sf := buildStandard(p)
	m := sf.m
	e := &Engine{
		p:          p,
		sf:         sf,
		m:          m,
		cost:       make([]float64, sf.nCols),
		basis:      make([]int, m),
		posOf:      make([]int, sf.nCols),
		xB:         make([]float64, m),
		lu:         newLU(m),
		rowScratch: make([]float64, m),
		posScratch: make([]float64, m),
		d:          make([]float64, m),
		y:          make([]float64, m),
		dualD:      make([]float64, sf.nCols),
		alpha:      make([]float64, sf.nCols),
		alphaSet:   make([]uint64, (sf.nCols+63)/64),
		devex:      make([]float64, m),
	}
	return e, nil
}

// Revised solves p with the sparse revised simplex: column-wise sparse
// constraint storage, an LU-factorized basis with product-form updates
// between periodic refactorizations, candidate-list partial pricing, and
// the same Bland-fallback termination contract (and the same
// ε-perturbation of the RHS) as the dense Solve. It is the one-shot form
// of NewEngine followed by Engine.Solve.
//
// warm may be nil (cold start) or the Basis of a previous Revised solve
// over the same constraint matrix. A cold solve starts from the all-slack
// basis and restores primal feasibility with the dual simplex (see
// coldPath). A usable warm basis resumes in phase 2 if it is still primal
// feasible under the new RHS, and if only dual feasible (the common case
// after an RHS change at an optimum) runs the dual simplex until primal
// feasibility is restored. A warm basis that cannot be reused (singular
// under the new data, or neither primal nor dual feasible) falls back to
// a cold start; a basis from a *different* matrix is an ErrBasisMismatch
// error.
//
// The returned Solution carries the final Basis for Optimal solves. The
// context is polled before every pivot.
func Revised(ctx context.Context, p *Problem, warm *Basis) (*Solution, error) {
	en, err := NewEngine(p)
	if err != nil {
		return nil, err
	}
	return en.Solve(ctx, warm)
}

// Solve solves the Engine's Problem under its current RHS and objective,
// cold when warm is nil and otherwise from warm, with Revised's contract.
func (e *Engine) Solve(ctx context.Context, warm *Basis) (*Solution, error) {
	if len(e.p.Objective) != e.sf.nStruct || len(e.p.Constraints) != e.m {
		return nil, fmt.Errorf("lp: problem resized to %d objective entries and %d rows, engine built for %d and %d",
			len(e.p.Objective), len(e.p.Constraints), e.sf.nStruct, e.m)
	}
	if warm != nil && (warm.sig != e.sf.sig || warm.m != e.sf.m) {
		return nil, fmt.Errorf("%w: basis for %d rows/sig %x, matrix has %d rows/sig %x",
			ErrBasisMismatch, warm.m, warm.sig, e.sf.m, e.sf.sig)
	}
	mSolves.Add(1)
	sp := mSolveNS.Span()
	defer sp.End()
	e.sf.readRHS(e.p)
	e.ctx = ctx
	e.pivots, e.phase1Pivots, e.dualPivots, e.pricePos = 0, 0, 0, 0
	e.warm = false
	kept := e.factored && warm != nil && slices.Equal(warm.cols, e.basis)
	e.factored = false
	if !kept {
		e.resetBasis()
	}
	sol, err := e.run(warm, kept)
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
		e.factored = true
		sol.Basis = &Basis{sig: e.sf.sig, m: e.sf.m, cols: slices.Clone(e.basis)}
	}
	return sol, nil
}

// run solves from warm, or cold when warm is nil or cannot be reused.
// kept reports that warm is the basis the engine already holds factored.
func (e *Engine) run(warm *Basis, kept bool) (*Solution, error) {
	if warm != nil {
		sol, ok, err := e.warmPath(warm, kept)
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

// resetBasis marks every column nonbasic, before a solve that does not
// resume from the kept basis and after a failed warm attempt.
func (e *Engine) resetBasis() {
	for j := range e.posOf {
		e.posOf[j] = -1
	}
}

// colFor returns the sparse entries of column id j.
func (e *Engine) colFor(j int) ([]int32, []float64) {
	return e.sf.cols[j].rows, e.sf.cols[j].vals
}

func (e *Engine) redCost(j int, y []float64) float64 {
	c := e.cost[j]
	rows, vals := e.colFor(j)
	for i, r := range rows {
		c -= y[r] * vals[i]
	}
	return c
}

// refactor rebuilds the LU factors from the current basis and recomputes
// the basic values from the RHS.
func (e *Engine) refactor() error {
	mRefactor.Add(1)
	if !e.lu.factor(func(pos int) ([]int32, []float64) { return e.colFor(e.basis[pos]) }) {
		return ErrSingularBasis
	}
	e.solveXB()
	return nil
}

// solveXB computes the basic values x_B = B⁻¹b with one FTRAN through
// the current factorization and eta file.
func (e *Engine) solveXB() {
	copy(e.rowScratch, e.sf.b)
	e.lu.ftran(e.rowScratch, e.xB)
}

// setPhase2Cost loads the true objective (slacks cost nothing).
func (e *Engine) setPhase2Cost() {
	clear(e.cost[copy(e.cost, e.p.Objective):])
}

// btranCost computes y = Bᵀ⁻¹ c_B into e.y.
func (e *Engine) btranCost() {
	for i := 0; i < e.m; i++ {
		e.posScratch[i] = e.cost[e.basis[i]]
	}
	e.lu.btran(e.posScratch, e.y)
}

// ftranCol computes d = B⁻¹ A_q into e.d.
func (e *Engine) ftranCol(q int) {
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
func (e *Engine) doPivot(q, r int, theta float64) error {
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
	if e.lu.numEtas() >= refactorEvery || !e.lu.appendEta(r, e.d) {
		return e.refactor()
	}
	return nil
}

// chooseEnteringPrimal prices nonbasic columns: candidate-list partial
// pricing (Dantzig within a rotating section) before blandAfter pivots,
// Bland's lowest-index rule after.
func (e *Engine) chooseEnteringPrimal() int {
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
func (e *Engine) chooseLeavingPrimal() (int, float64) {
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

// primal runs primal simplex iterations from a primal feasible basis
// until optimality.
func (e *Engine) primal() error {
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
			return errUnbounded
		}
		if err := e.doPivot(q, r, theta); err != nil {
			return err
		}
	}
	return ErrIterationLimit
}

// costPerturbation is the deterministic cost shift δ_j ∈ [5e-6, 1e-5)
// the dual phase adds to nonbasic column j. The L1 decoding LPs are
// massively dual degenerate: without it, whole plateaus of reduced costs
// tie in the dual ratio test and the dual simplex stalls on them. A hash
// of the column id (not an RNG) keeps every solve, and so every table,
// identical at any worker count; spreading the δ_j over a range 5000
// times tol keeps ties between perturbed columns rare.
func costPerturbation(j int) float64 {
	h := uint64(j) + 0x9e3779b97f4a7c15 // splitmix64 finalizer
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	u := float64(h>>11) / (1 << 53)
	return 5e-6 * (1 + u)
}

// primalFeasible reports whether every basic value is within feasTol of
// nonnegative.
func (e *Engine) primalFeasible() bool {
	for _, v := range e.xB {
		if v < -feasTol {
			return false
		}
	}
	return true
}

// coldPath solves from the all-slack basis B = I, which is always
// nonsingular. Negative costs are shifted to 0, which makes the slack
// basis dual feasible (every slack costs 0, so y = 0 and each reduced
// cost is the shifted cost), and the dual simplex then runs to a primal
// feasible basis — or proves the rows infeasible, whatever the costs.
// Its pivots are the solve's Phase1Pivots. Phase 2 restores the true
// costs and finishes with the primal simplex.
func (e *Engine) coldPath() (*Solution, error) {
	for r := 0; r < e.m; r++ {
		e.basis[r] = e.sf.nStruct + r
		e.posOf[e.basis[r]] = r
	}
	if err := e.refactor(); err != nil {
		return nil, err
	}
	if !e.primalFeasible() {
		e.setPhase2Cost()
		for j, c := range e.cost {
			e.cost[j] = max(c, 0)
		}
		e.refreshDualD()
		sol, err := e.dualPhase()
		e.phase1Pivots = e.pivots
		if sol != nil || err != nil {
			return sol, err
		}
	}
	return e.phase2()
}

// dualPhase adds costPerturbation to every nonbasic column's cost (and
// its cached reduced cost, so e.dualD must be fresh on entry) and runs
// the dual simplex until the basis is primal feasible. Like dual, it
// returns a non-nil Solution only for Infeasible.
func (e *Engine) dualPhase() (*Solution, error) {
	for j := range e.cost {
		if e.posOf[j] < 0 {
			delta := costPerturbation(j)
			e.cost[j] += delta
			e.dualD[j] += delta
		}
	}
	return e.dual()
}

// phase2 restores the true costs and runs the primal simplex from the
// current, primal feasible basis to an Optimal or Unbounded status.
func (e *Engine) phase2() (*Solution, error) {
	e.setPhase2Cost()
	for i, v := range e.xB {
		if v < 0 {
			e.xB[i] = 0
		}
	}
	if err := e.primal(); err != nil {
		if errors.Is(err, errUnbounded) {
			mUnbounded.Add(1)
			return &Solution{Status: Unbounded}, nil
		}
		return nil, err
	}
	return e.extract(), nil
}

// warmPath attempts to reuse a prior basis. ok=false means the basis was
// structurally acceptable but numerically unusable, or neither primal
// nor dual feasible — the caller falls back to a cold start. When kept,
// warm is the basis the engine already holds factored, and only the basic
// values are recomputed under the new RHS.
func (e *Engine) warmPath(warm *Basis, kept bool) (*Solution, bool, error) {
	if kept {
		e.solveXB()
	} else if ok, err := e.loadBasis(warm); !ok || err != nil {
		return nil, false, err
	}
	// The usual warm case after an RHS change at an optimum: no longer
	// primal feasible but still dual feasible, so the dual simplex
	// restores primal feasibility.
	needDual := !e.primalFeasible()
	if needDual {
		e.setPhase2Cost()
		e.refreshDualD()
		for j, dj := range e.dualD {
			if e.posOf[j] < 0 && dj < -feasTol {
				return nil, false, nil // neither primal nor dual feasible
			}
		}
	}
	mWarmStarts.Add(1)
	e.warm = true
	if needDual {
		if sol, err := e.dualPhase(); sol != nil || err != nil {
			return sol, true, err
		}
	}
	sol, err := e.phase2()
	return sol, err == nil, err
}

// loadBasis installs warm's columns as the basis and factors it. ok=false
// means the columns are out of range, duplicated or numerically singular.
func (e *Engine) loadBasis(warm *Basis) (ok bool, err error) {
	if len(warm.cols) != e.m {
		return false, fmt.Errorf("%w: basis has %d columns for %d rows", ErrBasisMismatch, len(warm.cols), e.m)
	}
	for _, j := range warm.cols {
		if j < 0 || j >= e.sf.nCols || e.posOf[j] >= 0 {
			// Out-of-range or duplicated column: not reusable.
			for k := range e.posOf {
				e.posOf[k] = -1
			}
			return false, nil
		}
		e.posOf[j] = 0 // mark for duplicate detection; fixed below
	}
	for i, j := range warm.cols {
		e.basis[i] = j
		e.posOf[j] = i
	}
	if err := e.refactor(); err != nil {
		if errors.Is(err, ErrSingularBasis) {
			return false, nil
		}
		return false, err
	}
	return true, nil
}

// refreshDualD recomputes the full nonbasic reduced-cost vector e.dualD
// from scratch (one BTRAN plus one pass over A). The dual simplex keeps
// it incrementally updated between refactorizations.
func (e *Engine) refreshDualD() {
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
//
// The leaving row is chosen by dual Devex pricing: the row maximizing
// x_i²/w_i over the infeasible rows, where w_i approximates the squared
// norm of row i of B⁻¹ in a reference framework set at the start of the
// phase (w = 1: the slack basis, or the warm basis the phase starts
// from). After a pivot on row r with entering column d = B⁻¹A_q the
// weights update as w_i ← max(w_i, (d_i/d_r)²·w_r) for i ≠ r and
// w_r ← max(w_r/d_r², 1) (Forrest & Goldfarb 1992; Koberstein 2005,
// §3.3), at O(m) per pivot and with no extra solve. Dantzig's rule (most
// negative x_i) prices rows by a scale the basis change distorts; Devex
// takes about a third fewer pivots on the decoding LPs.
func (e *Engine) dual() (*Solution, error) {
	maxIter := 20000 + 50*(e.m+e.sf.nCols)
	alpha, w := e.alpha, e.devex
	for i := range w {
		w[i] = 1
	}
	degenRun := 0 // consecutive pivots with no dual-objective progress
	for iter := 0; iter < maxIter; iter++ {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		// Leaving row: the Devex choice, or — after a degenerate run long
		// enough to suggest cycling — the infeasible row whose basic
		// variable has the lowest column id (Bland).
		r := -1
		if degenRun >= dualBlandRun {
			for i := 0; i < e.m; i++ {
				if e.xB[i] < -feasTol && (r < 0 || e.basis[i] < e.basis[r]) {
					r = i
				}
			}
		} else {
			best := 0.0
			for i, x := range e.xB {
				if x < -feasTol {
					if s := x * x / w[i]; s > best {
						best, r = s, i
					}
				}
			}
		}
		if r < 0 {
			return nil, nil // primal feasible — optimal after drift check
		}
		// ρ = Bᵀ⁻¹ e_r gives row r of B⁻¹A; the ratio test runs on the
		// cached reduced costs against that row, over the columns it
		// reaches in ascending order.
		clear(e.posScratch)
		e.posScratch[r] = 1
		e.lu.btran(e.posScratch, e.y)
		e.pivotRow()
		leaveCol := e.basis[r]
		q := -1
		bestRatio := math.Inf(1)
		for w, word := range e.alphaSet {
			for ; word != 0; word &= word - 1 {
				j := w<<6 | bits.TrailingZeros64(word)
				if e.posOf[j] >= 0 {
					alpha[j] = 0
					continue
				}
				a := alpha[j]
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
		dr := e.d[r]
		theta := e.xB[r] / dr
		wr := w[r]
		for i, di := range e.d {
			if di != 0 && i != r {
				if v := (di / dr) * (di / dr) * wr; v > w[i] {
					w[i] = v
				}
			}
		}
		w[r] = max(wr/(dr*dr), 1)
		// Reduced-cost update from the pivot row: d_j ← d_j − (d_q/α_q)·α_j
		// for nonbasic j; the leaving variable re-enters the nonbasic set
		// with cost −d_q/α_q.
		thetaD := e.dualD[q] / alpha[q]
		e.dualPivots++
		if err := e.doPivot(q, r, theta); err != nil {
			return nil, err
		}
		if e.lu.numEtas() == 0 {
			// doPivot refactorized: resync the cache instead of updating it.
			e.refreshDualD()
			continue
		}
		for w, word := range e.alphaSet {
			for ; word != 0; word &= word - 1 {
				j := w<<6 | bits.TrailingZeros64(word)
				if aj := alpha[j]; aj != 0 && e.posOf[j] < 0 {
					e.dualD[j] -= thetaD * aj
				}
			}
		}
		e.dualD[q] = 0
		e.dualD[leaveCol] = -thetaD
	}
	return nil, ErrIterationLimit
}

// pivotRow computes α = ρᵀA into e.alpha for ρ = e.y, row-wise over
// ρ's nonzeros, and records the columns it reaches in e.alphaSet (after
// clearing the previous row's). Each α_j sums its terms in ascending row
// order, as a column-wise pass over A_j would; the terms of the rows
// where ρ is zero that such a pass adds are ±0 and leave every sum as it
// is. ρ = Bᵀ⁻¹e_r is sparse on the decoding LPs (about an eighth of its
// entries at n = 24), so this touches a fraction of A.
func (e *Engine) pivotRow() {
	alpha, set := e.alpha, e.alphaSet
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			alpha[w<<6|bits.TrailingZeros64(word)] = 0
		}
		set[w] = 0
	}
	sf := e.sf
	for r, yr := range e.y {
		if yr == 0 {
			continue
		}
		lo, hi := sf.rowStart[r], sf.rowStart[r+1]
		cols, vals := sf.rowCols[lo:hi], sf.rowVals[lo:hi]
		vals = vals[:len(cols)]
		for i, j := range cols {
			alpha[j] += yr * vals[i]
			set[j>>6] |= 1 << (j & 63)
		}
	}
}

func (e *Engine) extract() *Solution {
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
