package experiments

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"singlingout/internal/obs"
	"singlingout/internal/obs/serve"
	"singlingout/internal/par"
	"singlingout/internal/query"
	"singlingout/internal/recon"
	"singlingout/internal/synth"
)

func TestE02StreamMonotoneCurveAndBatchIdentity(t *testing.T) {
	ctx := context.Background()
	const (
		seed  = int64(3)
		n     = 32
		chunk = 16
	)
	x := synth.BinaryDataset(rand.New(rand.NewSource(seed)), n, 0.5)
	cs := obs.NewCurveSet()
	tab, res, err := E02StreamOverOracle(ctx, &query.Exact{X: x}, x, seed, chunk, cs)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "E02.stream" || len(tab.Rows) != len(ConvergeThresholds) {
		t.Errorf("table = %s with %d rows", tab.ID, len(tab.Rows))
	}
	if res.Queries != 4*n {
		t.Errorf("queries = %d, want %d", res.Queries, 4*n)
	}
	if res.FinalAccuracy < 0.999 {
		t.Errorf("final accuracy = %v against an exact oracle", res.FinalAccuracy)
	}
	if q, ok := res.ToAccuracy[0.99]; !ok || q <= 0 || q > res.Queries {
		t.Errorf("ToAccuracy[0.99] = %d, %v", q, ok)
	}

	// The curve must be monotone in x with one point per chunk, ending at
	// the full workload.
	pts := cs.Curve("recon.lp.accuracy").Points()
	if want := res.Queries / chunk; len(pts) != want {
		t.Fatalf("curve has %d points, want %d", len(pts), want)
	}
	for i, p := range pts {
		if p.X != int64(chunk*(i+1)) {
			t.Errorf("point %d x = %d, want %d", i, p.X, chunk*(i+1))
		}
		if p.Stats["chunk"] != chunk {
			t.Errorf("point %d stats = %v", i, p.Stats)
		}
	}
	if last := pts[len(pts)-1]; last.Y != res.FinalAccuracy {
		t.Errorf("last curve y = %v, final accuracy = %v", last.Y, res.FinalAccuracy)
	}

	// The streamed final reconstruction is byte-identical to a batch
	// decode of the same workload.
	rng := par.RNG(seed, 0)
	qs := query.RandomSubsets(rng, n, 4*n)
	dec, err := recon.NewDecoder(n, qs, recon.L1Slack)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := (&query.Exact{X: x}).Answer(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	batch, _, err := dec.Decode(ctx, answers)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if res.Final[i] != batch[i] {
			t.Fatalf("streamed bit %d = %d, batch %d", i, res.Final[i], batch[i])
		}
	}
}

func TestE11StreamConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("census streaming solve is seconds-long")
	}
	ctx := context.Background()
	cs := obs.NewCurveSet()
	tab, res, err := E11StreamConverge(ctx, 1, true, cs)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "E11.stream" {
		t.Errorf("table = %s", tab.ID)
	}
	if res.FinalExactFraction <= 0 || res.FinalExactFraction > 1 {
		t.Errorf("final exact fraction = %v", res.FinalExactFraction)
	}
	if res.Cells <= 0 || res.Persons != 250 {
		t.Errorf("cells = %d persons = %d", res.Cells, res.Persons)
	}
	pts := cs.Curve("census.exact_fraction").Points()
	if len(pts) == 0 {
		t.Fatal("no curve points")
	}
	for i, p := range pts {
		if i > 0 && p.X <= pts[i-1].X {
			t.Errorf("curve not monotone at %d: x=%d after %d", i, p.X, pts[i-1].X)
		}
		if p.Y < 0 || p.Y > 1 {
			t.Errorf("point %d y = %v", i, p.Y)
		}
		if _, ok := p.Stats["decisions"]; !ok {
			t.Errorf("point %d carries no solver stats: %v", i, p.Stats)
		}
	}
	if last := pts[len(pts)-1]; int(last.X) != res.Cells {
		t.Errorf("last x = %d, want all %d cells", last.X, res.Cells)
	}
}

// TestE02StreamOverJournalServer runs the anytime LP attack against a
// journal-backed observability server: an SSE /converge client connected
// before the run receives every curve point live, in order, and one
// connecting after it receives the same points as replay.
func TestE02StreamOverJournalServer(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	journal := obs.NewJournal(io.Discard)
	cs := obs.NewCurveSet()
	cs.SetJournal(journal)
	s := serve.New(obs.NewRegistry(), journal)
	s.SetCurves(cs)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer s.Close() //nolint:errcheck

	tailConverge := func() io.ReadCloser {
		t.Helper()
		req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/converge", nil)
		req.Header.Set("Accept", "text/event-stream")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Body
	}
	readSamples := func(body io.Reader, n int) []obs.CurveSample {
		t.Helper()
		var out []obs.CurveSample
		sc := bufio.NewScanner(body)
		for len(out) < n && sc.Scan() {
			if line, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var smp obs.CurveSample
				if err := json.Unmarshal([]byte(line), &smp); err != nil {
					t.Fatal(err)
				}
				out = append(out, smp)
			}
		}
		if len(out) < n {
			t.Fatalf("converge tail ended after %d of %d samples: %v", len(out), n, sc.Err())
		}
		return out
	}

	early := tailConverge()
	defer early.Close()
	const seed, n, chunk = int64(5), 32, 8
	x := synth.BinaryDataset(rand.New(rand.NewSource(seed)), n, 0.5)
	if _, _, err := E02StreamOverOracle(ctx, &query.Exact{X: x}, x, seed, chunk, cs); err != nil {
		t.Fatal(err)
	}
	want := cs.Curve("recon.lp.accuracy").Points()
	if len(want) != 4*n/chunk {
		t.Fatalf("curve has %d points, want %d", len(want), 4*n/chunk)
	}
	late := tailConverge()
	defer late.Close()
	for name, body := range map[string]io.Reader{"live": early, "replay": late} {
		got := readSamples(body, len(want))
		for i, smp := range got {
			if smp.Name != "recon.lp.accuracy" || smp.X != want[i].X || smp.Y != want[i].Y {
				t.Errorf("%s sample %d = %+v, want %+v", name, i, smp, want[i])
			}
			if i > 0 && smp.X <= got[i-1].X {
				t.Errorf("%s tail not monotone: x=%d after x=%d", name, smp.X, got[i-1].X)
			}
		}
	}
}
