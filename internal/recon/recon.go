// Package recon implements the Dinur–Nissim database reconstruction
// attacks of Theorem 1.1: the exhaustive-search attack that works against
// any mechanism with o(n) error given enough subset queries, and the
// polynomial-time linear-programming decoding attack that defeats error up
// to o(√n). Exhaustive asks a query.Oracle directly; the LP Decoder takes
// the answers an oracle gave to its query set. Either way the same attack
// code runs against exact, bounded-error, Laplace-noised and budgeted
// mechanisms.
package recon

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"singlingout/internal/lp"
	"singlingout/internal/obs"
	"singlingout/internal/query"
)

// Metrics recorded into obs.Default() by the attack harnesses.
// recon.exhaustive_candidates counts candidate databases tested against the
// collected answers — the 2^n cost of the Theorem 1.1(i) attack.
var (
	mExhaustive = obs.Default().Counter("recon.exhaustive_runs")
	mCandidates = obs.Default().Counter("recon.exhaustive_candidates")
	mLPDecodes  = obs.Default().Counter("recon.lp_decodes")
)

// HammingError returns the fraction of positions where the reconstruction
// disagrees with the truth. A mechanism is "blatantly non-private" when an
// attacker achieves error below 5% (the paper's figure).
func HammingError(truth, recon []int64) float64 {
	if len(truth) != len(recon) {
		panic("recon: HammingError on mismatched lengths")
	}
	if len(truth) == 0 {
		return 0
	}
	wrong := 0
	for i := range truth {
		if truth[i] != recon[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(len(truth))
}

// Exhaustive mounts the Theorem 1.1(i)-style attack: it submits the whole
// workload as one oracle batch and searches all 2^n candidate databases
// for one consistent with every answer to within alpha, returning the
// first such candidate. It requires n <= 24.
//
// The theorem's guarantee: if the oracle's error is at most alpha on every
// query, the true database is itself consistent, and any consistent
// candidate can disagree with the truth only on O(alpha) entries.
func Exhaustive(ctx context.Context, o query.Oracle, queries [][]int, alpha float64) ([]int64, error) {
	n := o.N()
	if n > 24 {
		return nil, fmt.Errorf("recon: exhaustive attack limited to n <= 24, got %d", n)
	}
	masks := make([]uint32, len(queries))
	for qi, q := range queries {
		// The bitmask candidate evaluation below collapses a repeated index
		// to one membership bit, while an oracle summing naively would count
		// it twice — so the attacker enforces the same well-formedness
		// contract the oracle does, and both sides reject such a query
		// instead of silently disagreeing about what it means.
		if err := query.ValidateQuery(n, q); err != nil {
			return nil, fmt.Errorf("recon: %w", err)
		}
		var m uint32
		for _, i := range q {
			m |= 1 << uint(i)
		}
		masks[qi] = m
	}
	answers, err := o.Answer(ctx, queries)
	if err != nil {
		return nil, fmt.Errorf("recon: oracle failed: %w", err)
	}
	if len(answers) != len(queries) {
		return nil, fmt.Errorf("recon: oracle returned %d answers for %d queries", len(answers), len(queries))
	}
	mExhaustive.Add(1)
	tested := int64(0)
	defer func() { mCandidates.Add(tested) }()
	for cand := uint32(0); cand < 1<<uint(n); cand++ {
		tested++
		ok := true
		for qi := range masks {
			s := float64(bits.OnesCount32(cand & masks[qi]))
			if math.Abs(s-answers[qi]) > alpha+1e-9 {
				ok = false
				break
			}
		}
		if ok {
			x := make([]int64, n)
			for i := 0; i < n; i++ {
				if cand&(1<<uint(i)) != 0 {
					x[i] = 1
				}
			}
			return x, nil
		}
	}
	return nil, fmt.Errorf("recon: no candidate consistent within alpha = %v", alpha)
}

// LPObjective selects the LP-decoding objective (an ablation axis).
type LPObjective int

// LP decoding objectives.
const (
	// L1Slack minimizes the sum of per-query violations (the formulation
	// of Dwork–McSherry–Talwar LP decoding).
	L1Slack LPObjective = iota
	// Chebyshev minimizes the single largest violation.
	Chebyshev
)

// Decoder is the batched LP-decoding entry point: it fixes a query set
// once and decodes any number of answer vectors against it. The decoding
// LP's constraint matrix depends only on the queries — the answers enter
// only through the RHS — so the Decoder keeps one revised simplex engine
// (lp.Engine) for that matrix, built once, and warm-starts each decode
// from the basis, and the factorization, of the previous one. A streaming
// session (Stream) instead starts from the slack basis, the exact optimum
// of its all-inert first LP, so its output does not depend on what the
// Decoder solved before. A Decoder is not safe for concurrent use; each
// goroutine builds its own.
type Decoder struct {
	n       int
	queries [][]int
	cons    []lp.Constraint // RHS of the first 2·len(queries) rows rewritten per decode
	eng     *lp.Engine      // reads cons' RHS at every solve
	basis   *lp.Basis
}

// NewDecoder validates the query set and precomputes the decoding LP's
// constraint matrix for databases of size n.
func NewDecoder(n int, queries [][]int, objective LPObjective) (*Decoder, error) {
	m := len(queries)
	if m == 0 {
		return nil, fmt.Errorf("recon: no queries")
	}
	for _, q := range queries {
		// Same well-formedness contract as Exhaustive: the constraint rows
		// below assign one coefficient per index, collapsing duplicates an
		// oracle might have counted twice.
		if err := query.ValidateQuery(n, q); err != nil {
			return nil, fmt.Errorf("recon: %w", err)
		}
	}
	var nv int
	switch objective {
	case L1Slack:
		nv = n + m // x_0..x_{n-1}, e_0..e_{m-1}
	case Chebyshev:
		nv = n + 1 // x_0..x_{n-1}, t
	default:
		return nil, fmt.Errorf("recon: unknown objective %d", objective)
	}
	d := &Decoder{n: n, queries: queries}
	obj := make([]float64, nv)
	for j := n; j < nv; j++ {
		obj[j] = 1
	}
	d.cons = make([]lp.Constraint, 0, 2*m+n)
	for qi, q := range queries {
		// Σ_{i∈q} x_i - e <= a   and   -Σ_{i∈q} x_i - e <= -a over the
		// same variables; the RHS pair (a, -a) is filled in by Decode.
		slack := n // Chebyshev: the one shared bound t
		if objective == L1Slack {
			slack = n + qi
		}
		vars := append(append(make([]int, 0, len(q)+1), q...), slack)
		up := make([]float64, len(vars))
		lo := make([]float64, len(vars))
		for k := range q {
			up[k], lo[k] = 1, -1
		}
		up[len(q)], lo[len(q)] = -1, -1
		d.cons = append(d.cons,
			lp.Constraint{Vars: vars, Coeffs: up},
			lp.Constraint{Vars: vars, Coeffs: lo},
		)
	}
	one := []float64{1}
	for i := 0; i < n; i++ {
		d.cons = append(d.cons, lp.Constraint{Vars: []int{i}, Coeffs: one, RHS: 1})
	}
	eng, err := lp.NewEngine(&lp.Problem{NumVars: nv, Objective: obj, Constraints: d.cons})
	if err != nil {
		return nil, fmt.Errorf("recon: %w", err)
	}
	d.eng = eng
	return d, nil
}

// Decode fits a fractional database to one answer vector for the
// Decoder's query set and rounds it, warm-starting from the basis of the
// previous decode or session when one exists. It is the batch wrapper
// over the streaming path: one session pushing the whole answer vector at
// once (see StreamDecoder for the incremental, anytime form), except that
// it keeps the Decoder's warm-start basis, which Stream drops.
func (d *Decoder) Decode(ctx context.Context, answers []float64) ([]int64, []float64, error) {
	if len(answers) != len(d.queries) {
		return nil, nil, fmt.Errorf("recon: %d answers for %d queries", len(answers), len(d.queries))
	}
	mLPDecodes.Add(1)
	return d.session().Push(ctx, answers)
}

// Round converts a fractional database to binary by thresholding at 1/2.
func Round(frac []float64) []int64 {
	out := make([]int64, len(frac))
	for i, v := range frac {
		if v >= 0.5 {
			out[i] = 1
		}
	}
	return out
}
