package recon

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"singlingout/internal/obs"
	"singlingout/internal/query"
	"singlingout/internal/synth"
)

// buildWorkload builds a dataset, oracle, exact answers, and decoder for
// the streaming tests: n=24, m=4n random subset queries.
func buildWorkload(t *testing.T, seed int64) ([]int64, *query.Exact, []float64, *Decoder) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 24
	x := synth.BinaryDataset(rng, n, 0.5)
	queries := query.RandomSubsets(rng, n, 4*n)
	o := &query.Exact{X: x}
	answers, err := o.Answer(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(n, queries, L1Slack)
	if err != nil {
		t.Fatal(err)
	}
	return x, o, answers, dec
}

func TestStreamMatchesBatchDecode(t *testing.T) {
	x, _, answers, dec := buildWorkload(t, 7)
	batchGot, batchFrac, err := dec.Decode(ctx, answers)
	if err != nil {
		t.Fatal(err)
	}
	if e := HammingError(x, batchGot); e > 0.05 {
		t.Fatalf("batch reconstruction error = %v, want ~0", e)
	}

	// The finished stream must reproduce the batch decode bit-for-bit, at
	// any chunking — including uneven final chunks.
	for _, chunk := range []int{1, 7, 24, 96} {
		sd := dec.Stream()
		var got []int64
		var frac []float64
		for sd.Remaining() > 0 {
			k := chunk
			if rem := sd.Remaining(); k > rem {
				k = rem
			}
			got, frac, err = sd.Push(ctx, answers[sd.Answered():sd.Answered()+k])
			if err != nil {
				t.Fatalf("chunk %d at %d answered: %v", chunk, sd.Answered(), err)
			}
		}
		if sd.Answered() != len(answers) || sd.Remaining() != 0 {
			t.Fatalf("chunk %d: answered %d remaining %d", chunk, sd.Answered(), sd.Remaining())
		}
		for i := range got {
			if got[i] != batchGot[i] {
				t.Errorf("chunk %d: streamed bit %d = %d, batch %d", chunk, i, got[i], batchGot[i])
			}
		}
		// The fractional interiors may sit on different (equally optimal)
		// vertices of the degenerate LP, but only within the solver's
		// documented ~1e-5 numerical slack.
		for i := range frac {
			if d := frac[i] - batchFrac[i]; d > 1e-5 || d < -1e-5 {
				t.Errorf("chunk %d: streamed frac %d = %v, batch %v", chunk, i, frac[i], batchFrac[i])
			}
		}
	}

	// The decoder is reusable for plain batch decoding after a stream.
	again, _, err := dec.Decode(ctx, answers)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if again[i] != batchGot[i] {
			t.Fatalf("post-stream batch decode diverged at bit %d", i)
		}
	}
}

func TestStreamAccuracyReachesExact(t *testing.T) {
	x, o, _, dec := buildWorkload(t, 11)
	sd := dec.Stream()
	var last float64
	for sd.Remaining() > 0 {
		got, _, _, err := sd.PushOracle(ctx, o, 16)
		if err != nil {
			t.Fatal(err)
		}
		last = 1 - HammingError(x, got)
	}
	if last < 0.999 {
		t.Errorf("final streamed accuracy = %v, want 1.0 against an exact oracle", last)
	}
}

func TestStreamPushErrors(t *testing.T) {
	_, o, answers, dec := buildWorkload(t, 3)
	sd := dec.Stream()
	if _, _, err := sd.Push(ctx, nil); err == nil {
		t.Error("empty push should fail")
	}
	if _, _, err := sd.Push(ctx, append([]float64(nil), make([]float64, len(answers)+1)...)); err == nil {
		t.Error("overrunning push should fail")
	}
	if _, _, err := sd.Push(ctx, answers); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sd.PushOracle(ctx, o, 8); err == nil {
		t.Error("push on a finished workload should fail")
	}
	wrong := &query.Exact{X: make([]int64, o.N()+1)}
	if _, _, _, err := dec.Stream().PushOracle(ctx, wrong, 8); err == nil {
		t.Error("oracle size mismatch should fail")
	}
}

func TestStreamPushOracleChunking(t *testing.T) {
	_, o, _, dec := buildWorkload(t, 5)
	sd := dec.Stream()
	if _, _, k, err := sd.PushOracle(ctx, o, 10); err != nil || k != 10 {
		t.Fatalf("k = %d, err = %v, want 10", k, err)
	}
	// k <= 0 answers everything remaining.
	if _, _, k, err := sd.PushOracle(ctx, o, 0); err != nil || k != sd.Answered()-10 || sd.Remaining() != 0 {
		t.Fatalf("k = %d, err = %v, remaining = %d, want the rest in one push", k, err, sd.Remaining())
	}
}

// TestStreamPivotBudget bounds the simplex work of the converge probe's
// shape — n = 64, m = 4n exact answers — streamed one answer per push:
// one cold solve, then 255 warm dual-simplex re-solves. With every dual
// phase on perturbed costs this takes about 450 pivots; a dual simplex on
// the true costs stalls on degenerate plateaus here (86,119 pivots).
func TestStreamPivotBudget(t *testing.T) {
	const budget = 1500
	rng := rand.New(rand.NewSource(1))
	n := 64
	x := synth.BinaryDataset(rng, n, 0.5)
	queries := query.RandomSubsets(rng, n, 4*n)
	answers, err := (&query.Exact{X: x}).Answer(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(n, queries, L1Slack)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(wasEnabled)
	pivots := reg.Counter("lp.pivots")
	before := pivots.Value()
	sd := dec.Stream()
	var got []int64
	for i := range answers {
		if got, _, err = sd.Push(ctx, answers[i:i+1]); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if e := HammingError(x, got); e != 0 {
		t.Errorf("final streamed reconstruction error = %v, want 0 on exact answers", e)
	}
	used := pivots.Value() - before
	t.Logf("%d pushes took %d pivots", len(answers), used)
	if used > budget {
		t.Errorf("%d pushes took %d pivots, budget %d", len(answers), used, budget)
	}
}

// TestNoisyRoundPivotBudget bounds the simplex work of one noisy decoding
// round of the lp-recon benchmark's shape: n = 24, m = 4n answers from
// BoundedNoise at c = 1 (α = √n), one cold Decode, then the same answers
// pushed through a stream in 12 chunks of 8. With Devex pricing in the
// dual simplex this takes 881 pivots (254 of them the cold decode's);
// picking the most negative basic value as the leaving row instead takes
// 1,485.
func TestNoisyRoundPivotBudget(t *testing.T) {
	const budget = 1150
	rng := rand.New(rand.NewSource(1))
	n := 24
	x := synth.BinaryDataset(rng, n, 0.5)
	o := &query.BoundedNoise{X: x, Alpha: math.Sqrt(float64(n)), Rng: rand.New(rand.NewSource(rng.Int63()))}
	queries := query.RandomSubsets(rng, n, 4*n)
	answers, err := o.Answer(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(n, queries, L1Slack)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(wasEnabled)
	pivots := reg.Counter("lp.pivots")
	before := pivots.Value()
	if _, _, err := dec.Decode(ctx, answers); err != nil {
		t.Fatal(err)
	}
	cold := pivots.Value() - before
	sd := dec.Stream()
	for i := 0; i < len(answers); i += 8 {
		if _, _, err := sd.Push(ctx, answers[i:i+8]); err != nil {
			t.Fatalf("push at %d: %v", i, err)
		}
	}
	used := pivots.Value() - before
	t.Logf("cold decode %d pivots, 12 pushes %d, total %d", cold, used-cold, used)
	if used > budget {
		t.Errorf("cold decode + 12 pushes took %d pivots, budget %d", used, budget)
	}
}

// TestWarmPushAllocations: a Decoder keeps one simplex engine, so a warm
// push allocates only what it returns (the bits, the fractional vector,
// the lp.Solution with its X and Basis) — not the standard form, the LU
// factors and the scratch vectors a one-shot solve builds.
func TestWarmPushAllocations(t *testing.T) {
	const maxAllocs = 8
	_, _, answers, dec := buildWorkload(t, 9)
	if _, _, err := dec.Decode(ctx, answers); err != nil {
		t.Fatal(err)
	}
	sd := dec.Stream()
	var err error
	allocs := testing.AllocsPerRun(40, func() {
		if err == nil {
			_, _, err = sd.Push(ctx, answers[sd.Answered():sd.Answered()+2])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("warm push: %v allocations", allocs)
	if allocs > maxAllocs {
		t.Errorf("warm push allocated %v objects, want at most %d", allocs, maxAllocs)
	}
}

// TestReusedDecoderMatchesFresh: a Decoder that already decoded one
// answer vector decodes a second one, warm from the basis and the
// factorization it kept, to the same bits as a fresh Decoder does cold.
// With exact answers (c = 0) the optimum is unique, so both must also
// recover the database exactly.
func TestReusedDecoderMatchesFresh(t *testing.T) {
	x, _, answers, dec := buildWorkload(t, 13)
	if _, _, err := dec.Decode(ctx, answers); err != nil {
		t.Fatal(err)
	}
	y := synth.BinaryDataset(rand.New(rand.NewSource(14)), len(x), 0.5)
	answers2, err := (&query.Exact{X: y}).Answer(ctx, dec.queries)
	if err != nil {
		t.Fatal(err)
	}
	reused, _, err := dec.Decode(ctx, answers2)
	if err != nil {
		t.Fatal(err)
	}
	freshDec, err := NewDecoder(len(x), dec.queries, L1Slack)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := freshDec.Decode(ctx, answers2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(reused, fresh) {
		t.Errorf("reused decoder gave %v, fresh decoder %v", reused, fresh)
	}
	if e := HammingError(y, reused); e != 0 {
		t.Errorf("reused decoder's reconstruction error = %v, want 0 on exact answers", e)
	}
}

// TestStreamSessionIgnoresDecoderHistory: Stream drops the decoder's
// warm-start basis, because the all-inert LP a session starts from is
// optimal at the slack basis. So a session on a decoder that already ran
// an earlier session and a Decode returns, at every push, the fractional
// vector a session on a fresh decoder returns, bit for bit. And its first
// push is a solve of the pushed rows from B = I — about 24 pivots on the
// lp-recon shape (n = 24, pushes of 8) — not a re-solve from the last
// decode's full-answer optimum, which takes about 178 on these sets.
func TestStreamSessionIgnoresDecoderHistory(t *testing.T) {
	const firstPushBudget = 60 // mean pivots of a session's first push
	const n, chunk = 24, 8
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(wasEnabled)
	pivots := reg.Counter("lp.pivots")
	session := func(dec *Decoder, answers []float64, first *int64) [][]float64 {
		t.Helper()
		sd := dec.Stream()
		var fracs [][]float64
		for i := 0; i < len(answers); i += chunk {
			before := pivots.Value()
			_, frac, err := sd.Push(ctx, answers[i:i+chunk])
			if err != nil {
				t.Fatalf("push at %d: %v", i, err)
			}
			if i == 0 && first != nil {
				*first += pivots.Value() - before
			}
			fracs = append(fracs, frac)
		}
		return fracs
	}
	sessions := int64(0)
	firstPivots := int64(0)
	for seed := int64(1); seed <= 10; seed++ {
		for _, c := range []float64{0, 0.25, 1, 2} {
			rng := rand.New(rand.NewSource(seed))
			x := synth.BinaryDataset(rng, n, 0.5)
			o := &query.BoundedNoise{X: x, Alpha: c * math.Sqrt(n), Rng: rand.New(rand.NewSource(rng.Int63()))}
			queries := query.RandomSubsets(rng, n, 4*n)
			earlier, err := o.Answer(ctx, queries)
			if err != nil {
				t.Fatal(err)
			}
			answers, err := o.Answer(ctx, queries)
			if err != nil {
				t.Fatal(err)
			}
			used, err := NewDecoder(n, queries, L1Slack)
			if err != nil {
				t.Fatal(err)
			}
			session(used, earlier, nil)
			if _, _, err := used.Decode(ctx, answers); err != nil {
				t.Fatal(err)
			}
			got := session(used, answers, &firstPivots)
			sessions++
			fresh, err := NewDecoder(n, queries, L1Slack)
			if err != nil {
				t.Fatal(err)
			}
			want := session(fresh, answers, nil)
			for k := range want {
				if !slices.EqualFunc(got[k], want[k], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
					t.Fatalf("seed %d, c = %g, push %d: used decoder gave %v, fresh decoder %v", seed, c, k, got[k], want[k])
				}
			}
		}
	}
	mean := float64(firstPivots) / float64(sessions)
	t.Logf("%d sessions: first push after a Decode took %.1f pivots on average", sessions, mean)
	if mean > firstPushBudget {
		t.Errorf("first push after a Decode took %.1f pivots on average, budget %d", mean, firstPushBudget)
	}
}

// BenchmarkDecodeThenStream times the lp-recon benchmark's round shape
// for one noise level: n = 24, m = 4n BoundedNoise answers at α = c·√n,
// a new Decoder's cold Decode, then a 12-push session of 8 answers on the
// same Decoder. It reports pivots/op and ns/pivot, so the pivot count and
// the cost of a pivot show separately.
func BenchmarkDecodeThenStream(b *testing.B) {
	const n, chunk = 24, 8
	for _, c := range []float64{0, 0.25, 1} {
		b.Run(fmt.Sprintf("c=%g", c), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := synth.BinaryDataset(rng, n, 0.5)
			o := &query.BoundedNoise{X: x, Alpha: c * math.Sqrt(n), Rng: rand.New(rand.NewSource(rng.Int63()))}
			queries := query.RandomSubsets(rng, n, 4*n)
			answers, err := o.Answer(ctx, queries)
			if err != nil {
				b.Fatal(err)
			}
			reg := obs.Default()
			wasEnabled := reg.Enabled()
			reg.SetEnabled(true)
			defer reg.SetEnabled(wasEnabled)
			pivots := reg.Counter("lp.pivots")
			before := pivots.Value()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec, err := NewDecoder(n, queries, L1Slack)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := dec.Decode(ctx, answers); err != nil {
					b.Fatal(err)
				}
				sd := dec.Stream()
				for k := 0; k < len(answers); k += chunk {
					if _, _, err := sd.Push(ctx, answers[k:k+chunk]); err != nil {
						b.Fatal(err)
					}
				}
			}
			used := pivots.Value() - before
			b.ReportMetric(float64(used)/float64(b.N), "pivots/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(used), "ns/pivot")
		})
	}
}
