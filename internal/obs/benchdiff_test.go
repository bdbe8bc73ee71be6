package obs

import (
	"path/filepath"
	"strings"
	"testing"
)

func benchPair() (BenchSummary, BenchSummary) {
	base := BenchSummary{
		Rev: "aaaaaaaaaaaa", Seed: 1, Quick: true, TotalSeconds: 3.0,
		Experiments: []BenchEntry{
			{ID: "E01", Seconds: 1.0, Counters: map[string]int64{"query.count": 1000, "sat.conflicts": 5}},
			{ID: "E02", Seconds: 1.5, Counters: map[string]int64{"lp.pivots": 900}},
			{ID: "E11", Seconds: 0.5},
			{ID: "BENCH.census.workers=8", Seconds: 0.2},
			{ID: "E90", Seconds: 0.01},
		},
	}
	cur := BenchSummary{
		Rev: "bbbbbbbbbbbb", Seed: 1, Quick: true, TotalSeconds: 3.9,
		Experiments: []BenchEntry{
			{ID: "E01", Seconds: 1.0, Counters: map[string]int64{"query.count": 1000, "sat.conflicts": 5}},
			{ID: "E02", Seconds: 2.4, Counters: map[string]int64{"lp.pivots": 1800}}, // +60% regression
			{ID: "E11", Seconds: 0.5, Error: "boom"},
			{ID: "BENCH.census.workers=16", Seconds: 0.1}, // probe renamed on a bigger host: workers=8 is missing
			{ID: "E90", Seconds: 0.02},                    // +100% but under the seconds floor
		},
	}
	return base, cur
}

// TestRegressionsReportMissingRows: every baseline row is required, so a
// row dropped from the new summary is a violation at any threshold and
// floor, while a row only the new summary has is not.
func TestRegressionsReportMissingRows(t *testing.T) {
	base := BenchSummary{Rev: "aaaaaaaaaaaa", Experiments: []BenchEntry{
		{ID: "E13", Seconds: 0.2, Counters: map[string]int64{PivotCounter: 6782}},
		{ID: "BENCH.qserver.p50", Seconds: 0.001},
	}}
	cur := BenchSummary{Rev: "bbbbbbbbbbbb", Experiments: []BenchEntry{
		{ID: "BENCH.qserver.p50", Seconds: 0.001},
		{ID: "E99", Seconds: 5.0},
	}}
	got := DiffBench(base, cur).Regressions(1000, 10)
	if len(got) != 1 || got[0] != "E13: baseline row missing from new summary" {
		t.Errorf("violations = %v, want exactly the dropped E13 row", got)
	}
	cur.Experiments = append(cur.Experiments, base.Experiments[0])
	if got := DiffBench(base, cur).Regressions(1000, 10); len(got) != 0 {
		t.Errorf("every baseline row present: %v, want none", got)
	}
}

func TestDiffBenchRows(t *testing.T) {
	base, cur := benchPair()
	diff := DiffBench(base, cur)
	byID := map[string]BenchDelta{}
	for _, d := range diff.Rows {
		byID[d.ID] = d
	}
	if len(diff.Rows) != 6 { // 5 base rows + 1 new-only probe row
		t.Fatalf("rows = %d, want 6", len(diff.Rows))
	}
	if d := byID["E01"]; !d.InBase || !d.InNew || d.SecondsPct() != 0 || len(d.Counters) != 0 {
		t.Errorf("unchanged E01 delta = %+v", d)
	}
	d := byID["E02"]
	if got := d.SecondsPct(); got < 59.9 || got > 60.1 {
		t.Errorf("E02 pct = %v, want ~60", got)
	}
	if len(d.Counters) != 1 || d.Counters[0] != (CounterDelta{Name: "lp.pivots", Base: 900, New: 1800}) {
		t.Errorf("E02 counters = %+v", d.Counters)
	}
	if d := byID["BENCH.census.workers=8"]; !d.InBase || d.InNew {
		t.Errorf("renamed probe base row = %+v, want a baseline row missing from new", d)
	}
	if d := byID["BENCH.census.workers=16"]; d.InBase || !d.InNew {
		t.Errorf("renamed probe new row = %+v", d)
	}
}

func TestBenchDiffFprint(t *testing.T) {
	base, cur := benchPair()
	var b strings.Builder
	if err := DiffBench(base, cur).Fprint(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"aaaaaaaaaaaa", "bbbbbbbbbbbb",
		"E02", "+60.0%",
		"lp.pivots", "900 -> 1800",
		"TOTAL", "+30.0%",
		"gone", "new",
		`new err="boom"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("delta table missing %q:\n%s", want, out)
		}
	}
}

// TestBenchDiffGate pins the regression gate: an injected +60% wall-clock
// regression, the same row's doubled lp.pivots, a new error and a renamed
// probe's missing baseline row all trip it; the renamed row's new id,
// sub-floor experiments and unchanged experiments do not.
func TestBenchDiffGate(t *testing.T) {
	base, cur := benchPair()
	diff := DiffBench(base, cur)

	violations := diff.Regressions(50, 0.05)
	if len(violations) != 4 {
		t.Fatalf("violations = %v, want 4 (E02 wall clock + E02 pivots + E11 error + missing census row)", violations)
	}
	joined := strings.Join(violations, "\n")
	if !strings.Contains(joined, "E02: 1.500s -> 2.400s") || !strings.Contains(joined, "exceeds +50.0%") {
		t.Errorf("E02 regression not reported: %v", violations)
	}
	if !strings.Contains(joined, "E02: simplex pivots 900 -> 1800") {
		t.Errorf("E02 pivot regression not reported: %v", violations)
	}
	if !strings.Contains(joined, "E11") || !strings.Contains(joined, "boom") {
		t.Errorf("E11 error not reported: %v", violations)
	}
	if !strings.Contains(joined, "BENCH.census.workers=8: baseline row missing from new summary") {
		t.Errorf("missing census row not reported: %v", violations)
	}
	for _, banned := range []string{"E90", "BENCH.census.workers=16"} {
		if strings.Contains(joined, banned) {
			t.Errorf("%s must not trip the gate: %v", banned, violations)
		}
	}

	// A permissive threshold only reports the error and the missing row.
	if v := diff.Regressions(100, 0.05); len(v) != 2 || !strings.Contains(v[0], "E11") || !strings.Contains(v[1], "BENCH.census.workers=8") {
		t.Errorf("gate at 100%% = %v, want the E11 error and the missing census row", v)
	}
	// Raising the floor above E02's baseline silences its wall-clock
	// regression, but not its pivot growth: work counters have no floor.
	if v := diff.Regressions(50, 2.0); len(v) != 3 || !strings.Contains(v[0], "simplex pivots") || !strings.Contains(v[1], "E11") {
		t.Errorf("gate with 2s floor = %v, want the E02 pivot growth, the E11 error and the missing census row", v)
	}
}

func TestReadBenchFileRoundTrip(t *testing.T) {
	base, _ := benchPair()
	dir := t.TempDir()
	path, err := base.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rev != base.Rev || len(got.Experiments) != len(base.Experiments) {
		t.Errorf("round trip mangled summary: %+v", got)
	}
	if got.Experiments[0].Counters["query.count"] != 1000 {
		t.Errorf("counters lost: %+v", got.Experiments[0])
	}
	if _, err := ReadBenchFile(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing file must error")
	}
}

func TestConvergeRowsGateOnQueries(t *testing.T) {
	row := func(q int64, seconds float64) BenchEntry {
		return BenchEntry{ID: "BENCH.converge.q90", Seconds: seconds,
			Counters: map[string]int64{ConvergeCounter: q}}
	}
	base := BenchSummary{Rev: "aaaaaaaaaaaa", Experiments: []BenchEntry{row(80, 0.1)}}

	// More queries to the same accuracy is a regression, regardless of the
	// seconds floor (converge rows are deterministic counters, not noisy
	// wall clock — minSeconds must not shield them).
	cur := BenchSummary{Rev: "bbbbbbbbbbbb", Experiments: []BenchEntry{row(112, 0.1)}}
	got := DiffBench(base, cur).Regressions(10, 1.0)
	if len(got) != 1 || !strings.Contains(got[0], "lower is better") || !strings.Contains(got[0], "80 -> 112") {
		t.Errorf("query growth: %v, want one lower-is-better violation", got)
	}

	// Fewer (or equal) queries is an improvement, never a violation — even
	// when the probe's wall clock explodes (it is microseconds of noise).
	for _, q := range []int64{48, 80} {
		cur = BenchSummary{Rev: "bbbbbbbbbbbb", Experiments: []BenchEntry{row(q, 50.0)}}
		if got := DiffBench(base, cur).Regressions(10, 0); len(got) != 0 {
			t.Errorf("queries %d: %v, want none (wall clock must be ignored)", q, got)
		}
	}

	// A converge row that lost its counter cannot be gated — that is a
	// violation in itself, not a silent pass.
	cur = BenchSummary{Rev: "bbbbbbbbbbbb", Experiments: []BenchEntry{{ID: "BENCH.converge.q90", Seconds: 0.1}}}
	got = DiffBench(base, cur).Regressions(10, 0)
	if len(got) != 1 || !strings.Contains(got[0], "counter missing") {
		t.Errorf("missing counter: %v, want one violation", got)
	}

	// A baseline row without the counter has nothing to gate on.
	base = BenchSummary{Rev: "aaaaaaaaaaaa", Experiments: []BenchEntry{{ID: "BENCH.converge.q90", Seconds: 0.1}}}
	cur = BenchSummary{Rev: "bbbbbbbbbbbb", Experiments: []BenchEntry{row(999, 0.1)}}
	if got := DiffBench(base, cur).Regressions(10, 0); len(got) != 0 {
		t.Errorf("counterless baseline: %v, want none", got)
	}

	// Non-converge rows keep the wall-clock gate untouched.
	base = BenchSummary{Rev: "aaaaaaaaaaaa", Experiments: []BenchEntry{{ID: "E02", Seconds: 1.0}}}
	cur = BenchSummary{Rev: "bbbbbbbbbbbb", Experiments: []BenchEntry{{ID: "E02", Seconds: 2.0}}}
	if got := DiffBench(base, cur).Regressions(10, 0); len(got) != 1 {
		t.Errorf("wall-clock regression: %v, want one violation", got)
	}
}

func TestPivotCountersGateLowerIsBetter(t *testing.T) {
	row := func(id string, pivots int64, seconds float64) BenchEntry {
		return BenchEntry{ID: id, Seconds: seconds, Counters: map[string]int64{PivotCounter: pivots, "lp.solves": 13}}
	}
	base := BenchSummary{Rev: "aaaaaaaaaaaa", Experiments: []BenchEntry{
		row("E02", 20000, 2.0), row("E13", 12000, 0.01),
	}}

	// More pivots is a regression on any row carrying the counter, even
	// one below the wall-clock floor and with an unchanged wall clock.
	cur := BenchSummary{Rev: "bbbbbbbbbbbb", Experiments: []BenchEntry{
		row("E02", 20500, 2.0), row("E13", 19000, 0.01),
	}}
	got := DiffBench(base, cur).Regressions(10, 1.0)
	if len(got) != 1 || !strings.HasPrefix(got[0], "E13: simplex pivots 12000 -> 19000") ||
		!strings.Contains(got[0], "lower is better") {
		t.Errorf("pivot growth: %v, want one lower-is-better violation on E13", got)
	}

	// Fewer pivots is never a violation.
	cur = BenchSummary{Rev: "bbbbbbbbbbbb", Experiments: []BenchEntry{
		row("E02", 100, 2.0), row("E13", 0, 0.01),
	}}
	if got := DiffBench(base, cur).Regressions(10, 1.0); len(got) != 0 {
		t.Errorf("pivot drop: %v, want none", got)
	}

	// The wall-clock gate still applies to the same rows.
	cur = BenchSummary{Rev: "bbbbbbbbbbbb", Experiments: []BenchEntry{
		row("E02", 20000, 4.0), row("E13", 12000, 0.01),
	}}
	if got := DiffBench(base, cur).Regressions(10, 1.0); len(got) != 1 || !strings.HasPrefix(got[0], "E02: 2.000s -> 4.000s") {
		t.Errorf("wall clock: %v, want one E02 wall-clock violation", got)
	}

	// Phase-1 pivots are gated the same way: they may grow on a row whose
	// total pivot count did not.
	p1row := func(id string, pivots, phase1 int64) BenchEntry {
		e := row(id, pivots, 0.01)
		e.Counters[Phase1PivotCounter] = phase1
		return e
	}
	base = BenchSummary{Rev: "aaaaaaaaaaaa", Experiments: []BenchEntry{p1row("E02", 20000, 800)}}
	cur = BenchSummary{Rev: "bbbbbbbbbbbb", Experiments: []BenchEntry{p1row("E02", 20000, 1200)}}
	if got := DiffBench(base, cur).Regressions(10, 1.0); len(got) != 1 ||
		!strings.HasPrefix(got[0], "E02: phase-1 pivots 800 -> 1200") || !strings.Contains(got[0], "lower is better") {
		t.Errorf("phase-1 pivot growth: %v, want one lower-is-better violation on E02", got)
	}
	base = BenchSummary{Rev: "aaaaaaaaaaaa", Experiments: []BenchEntry{
		row("E02", 20000, 2.0), row("E13", 12000, 0.01),
	}}

	// A row that carries the counter on one side only is not gated on it.
	cur = BenchSummary{Rev: "bbbbbbbbbbbb", Experiments: []BenchEntry{
		{ID: "E02", Seconds: 2.0}, row("E13", 12000, 0.01),
	}}
	if got := DiffBench(base, cur).Regressions(10, 1.0); len(got) != 0 {
		t.Errorf("one-sided counter: %v, want none", got)
	}
}
