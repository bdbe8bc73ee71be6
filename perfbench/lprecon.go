package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"time"

	"singlingout/internal/query"
	"singlingout/internal/recon"
	"singlingout/internal/synth"
)

// lp-recon is LP-decoding reconstruction (Theorem 1.1(ii)) of an n-bit
// database from m = 4n random subset queries, answered by BoundedNoise at
// α = c·√n. For each noise level the round decodes the answers cold with
// a new Decoder, then pushes the same answers through the Decoder's
// stream in chunks, each push warm-starting the dual simplex.
const (
	lpN     = 24
	lpChunk = 8
)

var lpNoise = []float64{0, 0.25, 1}

type lpSet struct {
	c       float64
	queries [][]int
	oracle  query.Oracle

	answers             []float64
	cold, final         []int64
	coldFrac, finalFrac []float64
	err                 error
}

type lpRound struct {
	n, chunk int
	x        []int64
	sets     []*lpSet
	tr       *tracer
}

func newLPRound(_ context.Context, e env) (round, error) {
	r := &lpRound{n: lpN, chunk: lpChunk, tr: e.tr}
	if e.tiny {
		r.n, r.chunk = 12, 12
	}
	rng := rand.New(rand.NewSource(e.seed))
	r.x = synth.BinaryDataset(rng, r.n, 0.5)
	for _, c := range lpNoise {
		var o query.Oracle = &query.BoundedNoise{
			X: r.x, Alpha: c * math.Sqrt(float64(r.n)), Rng: rand.New(rand.NewSource(rng.Int63())),
		}
		if r.tr != nil {
			o = timedOracle{inner: o, tr: r.tr, name: "query.answer"}
		}
		r.sets = append(r.sets, &lpSet{c: c, queries: query.RandomSubsets(rng, r.n, 4*r.n), oracle: o})
	}
	return r, nil
}

// timed starts a span under root when the round is traced and returns
// the function that ends it.
func (r *lpRound) timed(name string, root int64) func() {
	if r.tr == nil {
		return func() {}
	}
	sp := r.tr.begin(name, root, 0)
	return func() { r.tr.end(sp, 0) }
}

func (r *lpRound) run(ctx context.Context, root int64) ([]time.Duration, int) {
	var ops []time.Duration
	failed := 0
	actx := withSpan(ctx, root, 0)
	solve := func(name string, f func() error) error {
		end := r.timed(name, root)
		t0 := time.Now()
		err := f()
		ops = append(ops, time.Since(t0))
		end()
		if err != nil {
			failed++
		}
		return err
	}
	for _, s := range r.sets {
		var err error
		if s.answers, err = s.oracle.Answer(actx, s.queries); err != nil {
			s.err = err
			failed++
			continue
		}
		end := r.timed("recon.newdecoder", root)
		dec, err := recon.NewDecoder(r.n, s.queries, recon.L1Slack)
		end()
		if err != nil {
			s.err = err
			failed++
			continue
		}
		if s.err = solve("recon.decode", func() (err error) {
			s.cold, s.coldFrac, err = dec.Decode(ctx, s.answers)
			return err
		}); s.err != nil {
			continue
		}
		sd := dec.Stream()
		for i := 0; i < len(s.answers) && s.err == nil; i += r.chunk {
			chunk := s.answers[i:min(i+r.chunk, len(s.answers))]
			s.err = solve("recon.push", func() (err error) {
				s.final, s.finalFrac, err = sd.Push(ctx, chunk)
				return err
			})
		}
	}
	return ops, failed
}

// check requires an exact reconstruction at c = 0 and a finished stream
// that matches the cold decode bit for bit there. At c > 0 the decoding
// LP can have several optimal vertices, so the stream must reach the cold
// decode's optimal objective; how often its rounded bits still differ is
// printed as an outcome.
func (r *lpRound) check(_ context.Context, _ map[string]int64, _ map[string]float64) (outcome, error) {
	out := outcome{rates: map[string]ratio{}}
	h := fnv.New64a()
	for _, s := range r.sets {
		if s.err != nil {
			continue // counted in failed
		}
		ham := recon.HammingError(r.x, s.cold)
		same := slices.Equal(s.cold, s.final)
		add(out.rates, fmt.Sprintf("c=%g hamming error", s.c), ham, 1)
		add(out.rates, fmt.Sprintf("c=%g stream bits differ", s.c), float64(b2i(!same)), 1)
		if s.c == 0 && ham != 0 {
			return out, fmt.Errorf("c=0: Hamming error %v, want 0", ham)
		}
		if s.c == 0 && !same {
			return out, fmt.Errorf("c=0: streamed decode differs from the cold decode")
		}
		cold, final := l1Residual(s.queries, s.answers, s.coldFrac), l1Residual(s.queries, s.answers, s.finalFrac)
		if math.Abs(cold-final) > 1e-3+1e-6*cold {
			return out, fmt.Errorf("c=%g: streamed decode has L1 residual %v, cold decode %v", s.c, final, cold)
		}
		for i := range s.cold {
			fmt.Fprintf(h, "%d %d %x %x\n", s.cold[i], s.final[i], math.Float64bits(s.coldFrac[i]), math.Float64bits(s.finalFrac[i]))
		}
	}
	out.digest = h.Sum64()
	return out, nil
}

func (r *lpRound) close() error { return nil }

// l1Residual is the decoding LP's objective at frac: Σ_j |Σ_{i∈q_j} frac_i − a_j|.
func l1Residual(queries [][]int, answers, frac []float64) float64 {
	t := 0.0
	for j, q := range queries {
		s := 0.0
		for _, i := range q {
			s += frac[i]
		}
		t += math.Abs(s - answers[j])
	}
	return t
}

// timedOracle times every Answer call as a span named name, under the
// span the context carries.
type timedOracle struct {
	inner query.Oracle
	tr    *tracer
	name  string
}

func (o timedOracle) Answer(ctx context.Context, queries [][]int) ([]float64, error) {
	parent, op := spanFrom(ctx)
	sp := o.tr.begin(o.name, parent, op)
	a, err := o.inner.Answer(ctx, queries)
	o.tr.end(sp, int64(len(queries)))
	return a, err
}

func (o timedOracle) N() int { return o.inner.N() }
