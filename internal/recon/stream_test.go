package recon

import (
	"math/rand"
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
