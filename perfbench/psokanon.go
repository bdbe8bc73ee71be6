package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"singlingout/internal/dataset"
	"singlingout/internal/pso"
	"singlingout/internal/synth"
)

// pso-kanon plays the PSO game of Definition 2.4 on the survey
// distribution against Mondrian k-anonymity at k = 2, 5 and 10, with the
// class∧1/k′ attacker (the E10 shape, n = 20k) and the corner attacker
// (the E15 shape, n fixed). Each pso.Run call plays one trial, so that
// every trial is timed; the rng stream is the one a multi-trial Run
// would draw.
//
// The attackers' estimator knobs (WeightSamples) keep their zero value.
const (
	psoTau       = 1e-4
	psoQuestions = 8
	psoSkew      = 0.8
)

type psoCase struct {
	label string
	cfg   pso.Config
	mech  pso.Mechanism
	att   pso.Attacker
}

// psoTrial is what the harness saw of one trial: the dataset its
// mechanism wrapper was handed and the predicate its attacker wrapper
// returned.
type psoTrial struct {
	c   int
	d   *dataset.Dataset
	p   pso.Predicate
	res pso.Result
	err error
}

type psoRound struct {
	rng    *rand.Rand
	cases  []psoCase
	trials int // per case
	tr     *tracer

	// Set by the wrappers during a trial.
	lastD      *dataset.Dataset
	lastP      pso.Predicate
	trial, op  int64 // current trial's span and op (traced only)
	gameDraws  draws
	attackDraw draws

	seen []psoTrial
}

func newPSORound(_ context.Context, e env) (round, error) {
	questions, trials, scale, cornerN := psoQuestions, 4, 20, 100
	if e.tiny {
		questions, trials, scale, cornerN = 4, 1, 4, 12
	}
	r := &psoRound{rng: rand.New(rand.NewSource(e.seed)), trials: trials, tr: e.tr}
	scfg := synth.SurveyConfig{Questions: questions, Skew: psoSkew}
	schema := synth.SurveySchema(scfg)
	qi := make([]int, len(schema.Attrs))
	for i := range qi {
		qi[i] = i
	}
	gameSample, attackSample := synth.SurveySampler(scfg), synth.SurveySampler(scfg)
	if r.tr != nil {
		r.gameDraws.clock, r.attackDraw.clock = r.tr.clock, r.tr.clock
		gameSample = timedSampler(gameSample, &r.gameDraws)
		attackSample = timedSampler(attackSample, &r.attackDraw)
	}
	for _, k := range []int{2, 5, 10} {
		mech := psoMechanism{inner: pso.KAnonymity{QI: qi, K: k, Algorithm: pso.UseMondrian}, r: r}
		for _, a := range []struct {
			name string
			n    int
			att  pso.Attacker
		}{
			{"class", scale * k, pso.KAnonClass{Sample: attackSample}},
			{"corner", cornerN, pso.Corner{Attr: 0, Sample: attackSample}},
		} {
			r.cases = append(r.cases, psoCase{
				label: fmt.Sprintf("k=%d %s", k, a.name),
				cfg:   pso.Config{N: a.n, Schema: schema, Sample: gameSample, Tau: psoTau, Trials: 1},
				mech:  mech,
				att:   psoAttacker{inner: a.att, r: r},
			})
		}
	}
	return r, nil
}

// timedSampler aggregates every draw into d.
func timedSampler(inner func(*rand.Rand) dataset.Record, d *draws) func(*rand.Rand) dataset.Record {
	return func(rng *rand.Rand) dataset.Record { return d.draw(inner, rng) }
}

// psoMechanism passes the game's rng and dataset through to the
// mechanism, keeping the dataset for the check and timing the release
// when traced.
type psoMechanism struct {
	inner pso.Mechanism
	r     *psoRound
}

func (m psoMechanism) Release(rng *rand.Rand, d *dataset.Dataset) (any, error) {
	m.r.lastD = d
	if m.r.tr == nil {
		return m.inner.Release(rng, d)
	}
	sp := m.r.tr.begin("kanon.release", m.r.trial, m.r.op)
	y, err := m.inner.Release(rng, d)
	m.r.tr.end(sp, 0)
	return y, err
}

func (m psoMechanism) Describe() string { return m.inner.Describe() }

// psoAttacker passes the game's rng through to the attacker, keeping the
// predicate for the check and timing the attack when traced.
type psoAttacker struct {
	inner pso.Attacker
	r     *psoRound
}

func (a psoAttacker) Attack(rng *rand.Rand, released any, n int) (pso.Predicate, error) {
	if a.r.tr == nil {
		p, err := a.inner.Attack(rng, released, n)
		a.r.lastP = p
		return p, err
	}
	sp := a.r.tr.begin("pso.attack", a.r.trial, a.r.op)
	p, err := a.inner.Attack(rng, released, n)
	a.r.tr.flush("pso.attack_sample", sp.id, a.r.op, &a.r.attackDraw)
	a.r.tr.end(sp, 0)
	a.r.lastP = p
	return p, err
}

func (a psoAttacker) Describe() string { return a.inner.Describe() }

func (r *psoRound) run(_ context.Context, root int64) ([]time.Duration, int) {
	ops := make([]time.Duration, 0, len(r.cases)*r.trials)
	failed := 0
	for ci, c := range r.cases {
		for t := 0; t < r.trials; t++ {
			r.lastD, r.lastP = nil, nil
			var sp active
			if r.tr != nil {
				sp = r.tr.begin("pso.run", root, 0)
				r.trial, r.op = sp.id, sp.op
			}
			t0 := time.Now()
			res, err := pso.Run(r.rng, c.cfg, c.mech, c.att)
			ops = append(ops, time.Since(t0))
			if r.tr != nil {
				r.tr.flush("synth.sample", sp.id, r.op, &r.gameDraws)
				r.tr.end(sp, 0)
			}
			if err != nil || res.AttackErrors > 0 {
				failed++
			}
			r.seen = append(r.seen, psoTrial{c: ci, d: r.lastD, p: r.lastP, res: res, err: err})
		}
	}
	return ops, failed
}

// check recomputes every trial's isolation and success from outside —
// pso.IsolationCount over the dataset the mechanism saw, for the
// predicate the attacker returned, and the τ rule — and compares them
// with the pso.Result counts and the pso.* obs counters.
func (r *psoRound) check(_ context.Context, delta map[string]int64, counts map[string]float64) (outcome, error) {
	out := outcome{rates: map[string]ratio{}}
	h := fnv.New64a()
	var trials, isolations, successes int
	for i, t := range r.seen {
		if t.err != nil {
			// A failed trial is counted in failed, not checked; the game
			// still counted it in pso.trials.
			trials++
			continue
		}
		iso := t.p != nil && pso.IsolationCount(t.p, t.d) == 1
		succ := iso && t.p.NominalWeight() <= psoTau
		if t.res.Trials != 1 || t.res.Isolations != b2i(iso) || t.res.Successes != b2i(succ) {
			return out, fmt.Errorf("trial %d (%s): result trials=%d isolations=%d successes=%d, recomputed isolation=%t success=%t",
				i, r.cases[t.c].label, t.res.Trials, t.res.Isolations, t.res.Successes, iso, succ)
		}
		trials += t.res.Trials
		isolations += t.res.Isolations
		successes += t.res.Successes
		label := r.cases[t.c].label
		add(out.rates, label+" success", float64(b2i(succ)), 1)
		add(out.rates, label+" isolation", float64(b2i(iso)), 1)
		desc := "attack error"
		if t.p != nil {
			desc = t.p.Describe()
		}
		fmt.Fprintf(h, "%d %t %t %s\n", t.c, iso, succ, desc)
	}
	if !(successes <= isolations && isolations <= trials) {
		return out, fmt.Errorf("successes %d, isolations %d, trials %d out of order", successes, isolations, trials)
	}
	if delta["pso.trials"] != int64(trials) || delta["pso.isolations"] != int64(isolations) || delta["pso.successes"] != int64(successes) {
		return out, fmt.Errorf("obs counters trials=%d isolations=%d successes=%d, results %d/%d/%d",
			delta["pso.trials"], delta["pso.isolations"], delta["pso.successes"], trials, isolations, successes)
	}
	out.digest = h.Sum64()
	return out, nil
}

func (r *psoRound) close() error { return nil }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func add(m map[string]ratio, key string, num, den float64) {
	t := m[key]
	t.num += num
	t.den += den
	m[key] = t
}
