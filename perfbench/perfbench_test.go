package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"singlingout/internal/query"
	"singlingout/internal/query/remote"
)

func tinyConfig(t *testing.T, w workload, traced bool) config {
	t.Helper()
	return config{workload: w, seed: 7, traced: traced, dir: t.TempDir(), tiny: true, minOps: 1}
}

// Every workload runs at a tiny size in both modes, passes its checks,
// and emits every metric of its mode with a finite value.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, w, traced)
			res, err := measure(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			s := res.summary(traced)
			if !s.Correct || s.Attempted < 1 || s.Failed != 0 {
				t.Fatalf("%s traced=%t: correct=%t attempted=%d failed=%d, errors %v",
					w.name, traced, s.Correct, s.Attempted, s.Failed, res.checkErrs)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(s.Metrics) != len(defs) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w.name, traced, len(s.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := s.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%t: metric %s = %+v, present=%t", w.name, traced, d.name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if traced && !w.concurrent {
				// One goroutine: the layers' self times partition the traced run.
				sum, run := res.layerSum(), s.Metrics["trace.run_ms"].Value
				if math.Abs(sum-run) > 0.01*run+0.1 {
					t.Errorf("%s: self times sum to %.3f ms, traced run is %.3f ms", w.name, sum, run)
				}
			}
		}
	}
}

// laplaceOffBy1 serves the laplace endpoint with every answer off by one.
type laplaceOffBy1 struct{}

func (laplaceOffBy1) Name() string { return "laplace" }

func (laplaceOffBy1) Open(cfg remote.ServerConfig, x []int64) (query.Oracle, error) {
	return offByOne{&query.StickyLaplace{X: x, Eps: cfg.Eps, Seed: cfg.Seed}}, nil
}

type offByOne struct{ query.Oracle }

func (o offByOne) Answer(ctx context.Context, queries [][]int) ([]float64, error) {
	a, err := o.Oracle.Answer(ctx, queries)
	for i := range a {
		a[i]++
	}
	return a, err
}

func TestWrongBackendFailsCheck(t *testing.T) {
	ctx := context.Background()
	r, err := startServe(ctx, env{seed: 3, tiny: true, dir: t.TempDir()}, true, []remote.Backend{laplaceOffBy1{}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if _, failed := r.run(ctx, 0); failed != 0 {
		t.Fatalf("%d requests failed", failed)
	}
	_, err = r.check(ctx, nil, map[string]float64{})
	if err == nil || !strings.Contains(err.Error(), "in-process oracle") {
		t.Fatalf("check passed a wrong backend: %v", err)
	}
}

func TestWrongOracleFailsCheck(t *testing.T) {
	ctx := context.Background()
	rd, err := newLPRound(ctx, env{seed: 3, tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	r := rd.(*lpRound)
	flipped := append([]int64(nil), r.x...)
	flipped[0] ^= 1
	r.sets[0].oracle = &query.Exact{X: flipped} // the c = 0 set
	if _, failed := r.run(ctx, 0); failed != 0 {
		t.Fatalf("%d solves failed", failed)
	}
	_, err = r.check(ctx, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "Hamming") {
		t.Fatalf("check passed a wrong oracle: %v", err)
	}
}

func TestPSOCheckRecountsIsolations(t *testing.T) {
	ctx := context.Background()
	rd, err := newPSORound(ctx, env{seed: 3, tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	r := rd.(*psoRound)
	r.run(ctx, 0)
	r.seen[0].res.Isolations ^= 1
	if _, err := r.check(ctx, map[string]int64{}, nil); err == nil {
		t.Fatal("check passed a miscounted isolation")
	}
}

// Derived ratios are 0, not NaN, when their base is 0.
func TestRatiosHandleZeroBase(t *testing.T) {
	res := &result{rounds: []roundStats{{counts: map[string]float64{}}}, tr: newTracer()}
	m := res.perLayer()
	for _, name := range []string{"pso.success_ratio", "lp.pivots_per_solve", "lp.warm_hit_ratio", "remote.cache_hit_ratio", "pso.attack_ms"} {
		if v := m[name]; v != 0 {
			t.Errorf("%s = %v with a zero base, want 0", name, v)
		}
	}
	if v := quantile(nil, 0.99); v != 0 {
		t.Errorf("quantile of no samples = %v", v)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100, Calls: 1},
		// Two overlapping children count once where they overlap: 10..50.
		{ID: 2, Parent: 1, Start: 10, End: 40, Calls: 1},
		{ID: 3, Parent: 1, Start: 30, End: 50, Calls: 1},
		// An aggregate child subtracts its busy time.
		{ID: 4, Parent: 1, Start: 60, End: 90, Calls: 5, Agg: true, Busy: 15},
		{ID: 5, Parent: 2, Start: 15, End: 25, Calls: 1},
	}
	selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 15, 2: 20, 3: 20, 4: 15, 5: 10}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d self = %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
}

func TestBadFlagsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "bogus"},
		{"--workload", "lp-recon", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// BENCHMARK.json at the repository root names workloads the harness
// runs and exactly the harness's metrics.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the harness", w.Name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, harness %d", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s/%s, harness %s/%s", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
