package recon

import (
	"context"
	"errors"
	"fmt"

	"singlingout/internal/lp"
	"singlingout/internal/obs"
	"singlingout/internal/query"
)

// mStreamPushes counts incremental answer chunks decoded by streaming
// sessions (each push is one warm-started LP re-solve).
var mStreamPushes = obs.Default().Counter("recon.stream_pushes")

// mColdRestarts counts warm-started solves that exhausted the simplex
// iteration budget and were retried cold. The L1 decoding LPs are
// massively dual degenerate, and the dual simplex's cost perturbation
// keeps it off their plateaus; should a stale warm basis strand it on one
// anyway, the cold solve from the slack basis, which starts over from
// B = I, is the fallback. A nonzero value is a performance signal, never
// a correctness one.
var mColdRestarts = obs.Default().Counter("recon.stream_cold_restarts")

// StreamDecoder is the anytime form of LP decoding: a session over the
// Decoder's fixed query workload that ingests answers incrementally —
// chunk by chunk, as a live oracle produces them — and re-decodes after
// every chunk, so an attacker watches the reconstruction sharpen with
// each answered query instead of waiting for the full batch.
//
// The trick that makes each step cheap is that answering more queries
// never changes the LP's constraint MATRIX, only its right-hand side.
// Stream rewrites each unanswered query's two answer rows to
//
//	Σ_{i∈q} x_i - e <= n   and   -Σ_{i∈q} x_i - e <= 0
//
// which no x ∈ [0,1]^n can violate even with e = 0 — the rows are inert
// and price to nothing — and Push tightens them to (a, -a) as answers
// arrive. The matrix (and hence the lp.Basis structure signature) is
// identical at every step, so each re-solve warm-starts from the
// previous optimum via the dual simplex: the newly tightened rows are
// the only violated ones. The first push starts from the slack basis
// (x = 0, e = 0), which is the all-inert LP's optimum, so a session's
// output depends only on the queries and the answers it was pushed, not
// on what its Decoder solved before.
//
// After the final push the LP is exactly the batch decoding LP
// (Decoder.Decode is itself a thin wrapper that streams the whole answer
// vector in one push), so the finished stream reaches the same optimal L1
// objective as the batch decode at every noise level. Its bits equal the
// batch decode's only when that optimum is unique, as with exact answers
// (noise c = 0). With noisy answers the L1 decoding LP is often
// degenerate, and the warm-started path can stop at a different optimal
// vertex than the one-push decode: measured at n = 24, m = 4n, chunks of
// 8, in about 1% of query sets at noise c = 0.25 and 16% at c = 1
// (perfbench lp-recon, seed 1, 20 s: 6 and 83 of 512 rounds; seed 2,
// 10 s: 2 and 39 of 257). A StreamDecoder borrows its Decoder — run one
// session at a time and do not interleave Decode calls with an active
// session.
type StreamDecoder struct {
	d        *Decoder
	answered int
}

// Stream starts a streaming session over the decoder's workload: every
// query is reset to unanswered (inert constraint rows) and the session
// ingests answers in order via Push or PushOracle.
//
// The all-inert LP's optimum is known exactly: the slack basis, x = 0
// and e = 0. So Stream also drops the decoder's warm-start basis, and the
// session's first push solves from B = I, with only the pushed rows to
// repair, instead of from the optimum of whatever the decoder solved
// last. A session's output therefore does not depend on the decoder's
// history.
func (d *Decoder) Stream() *StreamDecoder {
	d.basis = nil
	return d.session()
}

// session resets every query to unanswered and starts a session that
// keeps the decoder's warm-start basis.
func (d *Decoder) session() *StreamDecoder {
	for qi := range d.queries {
		d.cons[2*qi].RHS = float64(d.n)
		d.cons[2*qi+1].RHS = 0
	}
	return &StreamDecoder{d: d}
}

// Answered returns how many of the workload's queries have been answered.
func (sd *StreamDecoder) Answered() int { return sd.answered }

// Remaining returns how many queries are still unanswered.
func (sd *StreamDecoder) Remaining() int { return len(sd.d.queries) - sd.answered }

// Push ingests the answers to the next len(answers) queries of the
// workload (in workload order) and re-decodes, warm-starting from the
// previous step's simplex basis. It returns the rounded reconstruction
// and the fractional LP solution fitted to the answers seen so far.
func (sd *StreamDecoder) Push(ctx context.Context, answers []float64) ([]int64, []float64, error) {
	if len(answers) == 0 {
		return nil, nil, fmt.Errorf("recon: stream push of 0 answers")
	}
	if got := sd.answered + len(answers); got > len(sd.d.queries) {
		return nil, nil, fmt.Errorf("recon: stream push overruns workload: %d answers for %d unanswered queries", len(answers), sd.Remaining())
	}
	for i, a := range answers {
		qi := sd.answered + i
		sd.d.cons[2*qi].RHS = a
		sd.d.cons[2*qi+1].RHS = -a
	}
	sd.answered += len(answers)
	mStreamPushes.Add(1)
	return sd.d.solve(ctx)
}

// PushOracle asks the oracle the next k unanswered queries of the
// workload (all remaining when k <= 0 or k exceeds them) as one batch
// and pushes the answers. It returns the step's reconstruction, the
// fractional solution, and the number of queries actually answered.
func (sd *StreamDecoder) PushOracle(ctx context.Context, o query.Oracle, k int) ([]int64, []float64, int, error) {
	if o.N() != sd.d.n {
		return nil, nil, 0, fmt.Errorf("recon: oracle has n = %d, decoder built for %d", o.N(), sd.d.n)
	}
	if rem := sd.Remaining(); k <= 0 || k > rem {
		k = rem
	}
	if k == 0 {
		return nil, nil, 0, fmt.Errorf("recon: stream push on a finished workload")
	}
	answers, err := o.Answer(ctx, sd.d.queries[sd.answered:sd.answered+k])
	if err != nil {
		return nil, nil, 0, fmt.Errorf("recon: oracle failed: %w", err)
	}
	got, frac, err := sd.Push(ctx, answers)
	return got, frac, k, err
}

// solve runs the decoding LP over the decoder's current RHS state on the
// decoder's engine, warm-starting from (and then retaining) the simplex
// basis the engine holds factored. A warm solve that runs out of simplex
// iterations is retried cold, which discards that basis and its
// factorization — see mColdRestarts.
func (d *Decoder) solve(ctx context.Context) ([]int64, []float64, error) {
	sol, err := d.eng.Solve(ctx, d.basis)
	if err != nil && d.basis != nil && errors.Is(err, lp.ErrIterationLimit) {
		mColdRestarts.Add(1)
		d.basis = nil
		sol, err = d.eng.Solve(ctx, nil)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("recon: LP solve: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, nil, fmt.Errorf("recon: LP status %v", sol.Status)
	}
	d.basis = sol.Basis
	frac := make([]float64, d.n)
	copy(frac, sol.X[:d.n])
	return Round(frac), frac, nil
}
