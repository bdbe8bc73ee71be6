package lp

import (
	"context"
	"errors"
	"math"
	"testing"

	"singlingout/internal/par"
)

// TestChooseLeavingTieChainDense is the regression test for the ratio-test
// tie-break creep: four rows with ratios {0, 0.9·tol, 1.8·tol, 2.7·tol}
// and descending basis indices {10, 5, 3, 1}. Each adjacent pair ties
// within tol, so the buggy tie-break — which overwrote bestRatio with the
// larger tied ratio — would creep from row 0 all the way to row 3 (ratio
// 2.7·tol above the true minimum). Keeping the minimum ratio, only row 1
// genuinely ties with row 0, and its smaller basis index wins.
func TestChooseLeavingTieChainDense(t *testing.T) {
	ratios := []float64{0, 0.9 * tol, 1.8 * tol, 2.7 * tol}
	basis := []int{10, 5, 3, 1}
	tab := &tableau{m: 4, total: 1, basis: basis}
	tab.a = make([][]float64, 5)
	for r := 0; r < 4; r++ {
		tab.a[r] = []float64{1, ratios[r]} // entering coefficient 1, RHS = ratio
	}
	tab.a[4] = []float64{0, 0} // objective row (unused here)
	if got := tab.chooseLeaving(0); got != 1 {
		t.Errorf("chooseLeaving = row %d (basis %d), want row 1 (basis 5): accepted ratio crept above the true minimum",
			got, basis[got])
	}
}

// TestChooseLeavingTieChainRevised: the same tie chain through the
// revised engine's ratio test.
func TestChooseLeavingTieChainRevised(t *testing.T) {
	e := &Engine{
		m:     4,
		d:     []float64{1, 1, 1, 1},
		xB:    []float64{0, 0.9 * tol, 1.8 * tol, 2.7 * tol},
		basis: []int{10, 5, 3, 1},
	}
	if got, _ := e.chooseLeavingPrimal(); got != 1 {
		t.Errorf("chooseLeavingPrimal = pos %d, want pos 1 (basis 5)", got)
	}
}

// driveOutProblem is a ≤-only LP whose crash basis holds an artificial at
// (numerically) zero level in the dense engine. Row 0, x ≤ -1.05·perturb,
// has a negative RHS, so the tableau starts it on its artificial; after
// the row's ε-relaxation of perturb the artificial's level is
// 0.05·perturb — below the phase-1 tolerance. x has the wrong sign to
// enter under the phase-1 objective, so phase 1 is optimal at once with
// the artificial still basic, and driving it out takes exactly one pivot.
func driveOutProblem() *Problem {
	return &Problem{
		NumVars:   2,
		Objective: []float64{0, -1},
		Constraints: []Constraint{
			{Vars: []int{0}, Coeffs: []float64{1}, RHS: -1.05 * perturb},
			{Vars: []int{0, 1}, Coeffs: []float64{1, 1}, RHS: 2},
		},
	}
}

// TestDriveOutPivotAccounting is the regression test for the pivot
// accounting bug: pivots the dense engine spends driving artificials out
// of the basis after phase-1 optimality must be attributed to phase 1,
// not silently lumped into neither phase. The subtest first checks that
// the crash basis holds row 0's artificial at zero level, then that the
// solve makes the one drive-out pivot and counts it in Phase1Pivots.
// (The revised engine has no artificials: it starts from the slack basis.)
func TestDriveOutPivotAccounting(t *testing.T) {
	p := driveOutProblem()
	check := func(t *testing.T, s *Solution, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if s.Status != Optimal {
			t.Fatalf("status = %v", s.Status)
		}
		if math.Abs(s.Objective+2) > 1e-6 {
			t.Errorf("objective = %v, want -2", s.Objective)
		}
		if s.Phase1Pivots != 1 {
			t.Errorf("Phase1Pivots = %d, want 1: drive-out pivot not made or not attributed to phase 1", s.Phase1Pivots)
		}
		if s.Pivots <= s.Phase1Pivots {
			t.Errorf("Pivots = %d, want phase-2 pivots beyond the %d of phase 1", s.Pivots, s.Phase1Pivots)
		}
	}
	t.Run("dense", func(t *testing.T) {
		tab := newTableau(p)
		if tab.basis[0] < tab.artStart || math.Abs(tab.rhs(0)) > tol {
			t.Fatalf("crash basis: row 0 holds column %d at %v, want an artificial at zero", tab.basis[0], tab.rhs(0))
		}
		s, err := Solve(ctx, p)
		check(t, s, err)
	})
}

// pollCtx is a context whose Err reports cancellation from its k+1-th
// poll on, so a solve sees it only after k polls have passed.
type pollCtx struct {
	context.Context
	k, polls int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls > c.k {
		return context.Canceled
	}
	return nil
}

// TestSolveCancellation: both engines must honor context cancellation
// mid-solve, polling the context before every pivot instead of running a
// degenerate solve to the end.
func TestSolveCancellation(t *testing.T) {
	p := reconLP(par.RNG(5, 0), 8)
	for _, eng := range []struct {
		name  string
		solve func(context.Context) (*Solution, error)
	}{
		{"dense", func(c context.Context) (*Solution, error) { return Solve(c, p) }},
		{"revised", func(c context.Context) (*Solution, error) { return Revised(c, p, nil) }},
	} {
		t.Run(eng.name, func(t *testing.T) {
			full, err := eng.solve(ctx)
			if err != nil {
				t.Fatal(err)
			}
			const k = 5
			if full.Pivots <= 2*k {
				t.Fatalf("uncancelled solve took %d pivots; need more than %d to cancel mid-solve", full.Pivots, 2*k)
			}
			for _, c := range []*pollCtx{{Context: ctx, k: 0}, {Context: ctx, k: k}} {
				s, err := eng.solve(c)
				if !errors.Is(err, context.Canceled) {
					t.Errorf("cancel after %d polls: err = %v, want context.Canceled", c.k, err)
				}
				if s != nil {
					t.Errorf("cancel after %d polls: got a solution with status %v", c.k, s.Status)
				}
				if c.polls != c.k+1 {
					t.Errorf("cancel after %d polls: polled %d times, want the solve to stop at the first canceled poll", c.k, c.polls)
				}
			}
		})
	}
}
