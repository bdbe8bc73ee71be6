package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// ReadBenchFile loads a BENCH_<rev>.json performance summary.
func ReadBenchFile(path string) (BenchSummary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return BenchSummary{}, fmt.Errorf("obs: bench summary read: %w", err)
	}
	var b BenchSummary
	if err := json.Unmarshal(data, &b); err != nil {
		return BenchSummary{}, fmt.Errorf("obs: bench summary parse %s: %w", path, err)
	}
	return b, nil
}

// CounterDelta is one work counter compared across two revisions.
type CounterDelta struct {
	Name      string
	Base, New int64
}

// BenchDelta is the per-experiment comparison of two bench summaries. An
// experiment may exist in only one side (InBase/InNew) — a dropped
// baseline row or a newly added experiment.
type BenchDelta struct {
	ID            string
	InBase, InNew bool
	BaseSeconds   float64
	NewSeconds    float64
	BaseError     string
	NewError      string
	Counters      []CounterDelta // union of counter names, sorted; only entries that changed
	// BaseCounters/NewCounters are each side's full counter maps (nil for
	// a missing side): direction-aware gates like the BENCH.converge rows
	// need a counter's value even when it did not change.
	BaseCounters map[string]int64
	NewCounters  map[string]int64
}

// ConvergeRowPrefix marks bench rows that measure queries-to-accuracy
// (emitted by cmd/repro's converge probe). Unlike wall-clock rows, these
// gate on the ConvergeCounter work counter, and lower is better: a larger
// value means the attack needed more queries to reach the same accuracy —
// the decoder got weaker — regardless of how fast the probe ran.
const ConvergeRowPrefix = "BENCH.converge."

// ConvergeCounter is the counter a BENCH.converge row is gated on: the
// cumulative query count at which the row's accuracy milestone was
// reached.
const ConvergeCounter = "converge.queries"

// PivotCounter is the simplex work counter (every LP pivot of the row's
// solves), and Phase1PivotCounter the pivots cold solves spend before
// their first primal-feasible basis. Like ConvergeCounter they are
// deterministic per seed and lower is better, so Regressions gates each
// on every row that carries it on both sides, alongside the row's wall
// clock.
const (
	PivotCounter       = "lp.pivots"
	Phase1PivotCounter = "lp.phase1_pivots"
)

// pivotCounters names the lower-is-better solver counters Regressions
// gates, with the wording its violations use.
var pivotCounters = []struct{ name, what string }{
	{PivotCounter, "simplex pivots"},
	{Phase1PivotCounter, "phase-1 pivots"},
}

// SecondsPct returns the wall-clock change in percent relative to the
// baseline (0 when the baseline is zero or a side is missing).
func (d BenchDelta) SecondsPct() float64 {
	if !d.InBase || !d.InNew || d.BaseSeconds == 0 {
		return 0
	}
	return 100 * (d.NewSeconds - d.BaseSeconds) / d.BaseSeconds
}

// BenchDiff is the full comparison of two BENCH_<rev>.json summaries — the
// unit cmd/benchdiff prints and gates on.
type BenchDiff struct {
	Base, New BenchSummary
	Rows      []BenchDelta
}

// DiffBench compares two bench summaries experiment by experiment:
// baseline order first, then experiments only present in the new summary.
// Duplicate ids keep their first occurrence.
func DiffBench(base, cur BenchSummary) BenchDiff {
	diff := BenchDiff{Base: base, New: cur}
	newByID := map[string]BenchEntry{}
	for _, e := range cur.Experiments {
		if _, ok := newByID[e.ID]; !ok {
			newByID[e.ID] = e
		}
	}
	seen := map[string]bool{}
	for _, b := range base.Experiments {
		if seen[b.ID] {
			continue
		}
		seen[b.ID] = true
		d := BenchDelta{ID: b.ID, InBase: true, BaseSeconds: b.Seconds, BaseError: b.Error, BaseCounters: b.Counters}
		if n, ok := newByID[b.ID]; ok {
			d.InNew = true
			d.NewSeconds = n.Seconds
			d.NewError = n.Error
			d.Counters = diffCounters(b.Counters, n.Counters)
			d.NewCounters = n.Counters
		}
		diff.Rows = append(diff.Rows, d)
	}
	for _, n := range cur.Experiments {
		if seen[n.ID] {
			continue
		}
		seen[n.ID] = true
		diff.Rows = append(diff.Rows, BenchDelta{
			ID: n.ID, InNew: true, NewSeconds: n.Seconds, NewError: n.Error,
			Counters: diffCounters(nil, n.Counters), NewCounters: n.Counters,
		})
	}
	return diff
}

// diffCounters returns the changed work counters across the union of both
// maps, name-sorted.
func diffCounters(base, cur map[string]int64) []CounterDelta {
	names := map[string]bool{}
	for name := range base {
		names[name] = true
	}
	for name := range cur {
		names[name] = true
	}
	var out []CounterDelta
	for name := range names {
		if base[name] != cur[name] {
			out = append(out, CounterDelta{Name: name, Base: base[name], New: cur[name]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Fprint renders the delta table: one row per experiment with baseline and
// new wall-clock plus the percentage change, indented lines for every work
// counter that moved (oracle queries, simplex pivots, SAT conflicts, ...),
// and a TOTAL row.
func (diff BenchDiff) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "benchdiff %s -> %s (base seed %d quick=%v, new seed %d quick=%v)\n",
		diff.Base.Rev, diff.New.Rev, diff.Base.Seed, diff.Base.Quick, diff.New.Seed, diff.New.Quick); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-28s %10s %10s %10s %9s\n", "experiment", "base s", "new s", "delta s", "delta %"); err != nil {
		return err
	}
	for _, d := range diff.Rows {
		var line string
		switch {
		case d.InBase && !d.InNew:
			line = fmt.Sprintf("  %-28s %10.3f %10s %10s %9s", d.ID, d.BaseSeconds, "-", "-", "gone")
		case !d.InBase && d.InNew:
			line = fmt.Sprintf("  %-28s %10s %10.3f %10s %9s", d.ID, "-", d.NewSeconds, "-", "new")
		default:
			line = fmt.Sprintf("  %-28s %10.3f %10.3f %+10.3f %+8.1f%%",
				d.ID, d.BaseSeconds, d.NewSeconds, d.NewSeconds-d.BaseSeconds, d.SecondsPct())
		}
		if d.BaseError != "" || d.NewError != "" {
			line += fmt.Sprintf("  [base err=%q new err=%q]", d.BaseError, d.NewError)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		for _, c := range d.Counters {
			pct := ""
			if c.Base != 0 {
				pct = fmt.Sprintf(" (%+.1f%%)", 100*float64(c.New-c.Base)/float64(c.Base))
			}
			if _, err := fmt.Fprintf(w, "      %-26s %12d -> %-12d%s\n", c.Name, c.Base, c.New, pct); err != nil {
				return err
			}
		}
	}
	totalPct := 0.0
	if diff.Base.TotalSeconds > 0 {
		totalPct = 100 * (diff.New.TotalSeconds - diff.Base.TotalSeconds) / diff.Base.TotalSeconds
	}
	_, err := fmt.Fprintf(w, "  %-28s %10.3f %10.3f %+10.3f %+8.1f%%\n",
		"TOTAL", diff.Base.TotalSeconds, diff.New.TotalSeconds,
		diff.New.TotalSeconds-diff.Base.TotalSeconds, totalPct)
	return err
}

// Regressions returns one violation per baseline experiment missing from
// the new summary, per experiment whose wall-clock grew by more than pct
// percent over a baseline of at least minSeconds (the floor keeps
// sub-noise experiments from tripping the gate), and per experiment that
// ran clean in the baseline but errored in the new run. Every baseline row
// id is host-independent, so a row that vanished is always a violation.
//
// Rows under ConvergeRowPrefix invert the usual direction: they measure
// queries-to-accuracy via the ConvergeCounter work counter (deterministic
// per seed, so no noise floor applies) and regress when the counter GROWS
// by more than pct percent — more queries for the same accuracy is a
// weaker attack. Their wall clock (microseconds of probe time) is ignored.
// Every row whose baseline and new counters both carry one of the
// pivotCounters also regresses when that count grows by more than pct
// percent, with no noise floor either.
func (diff BenchDiff) Regressions(pct, minSeconds float64) []string {
	var out []string
	for _, d := range diff.Rows {
		if !d.InBase {
			continue
		}
		if !d.InNew {
			out = append(out, fmt.Sprintf("%s: baseline row missing from new summary", d.ID))
			continue
		}
		if d.BaseError == "" && d.NewError != "" {
			out = append(out, fmt.Sprintf("%s: errored in new run: %s", d.ID, d.NewError))
			continue
		}
		if d.BaseError != "" || d.NewError != "" {
			continue
		}
		for _, c := range pivotCounters {
			bp, inBase := d.BaseCounters[c.name]
			np, inNew := d.NewCounters[c.name]
			if inBase && inNew {
				if v, ok := counterGrowth(d.ID, c.what, bp, np, pct); ok {
					out = append(out, v)
				}
			}
		}
		if strings.HasPrefix(d.ID, ConvergeRowPrefix) {
			bq, nq := d.BaseCounters[ConvergeCounter], d.NewCounters[ConvergeCounter]
			switch {
			case bq <= 0:
				// Baseline row without the counter: nothing to gate on.
			case nq <= 0:
				out = append(out, fmt.Sprintf("%s: %s counter missing from new run", d.ID, ConvergeCounter))
			default:
				if v, ok := counterGrowth(d.ID, "queries-to-accuracy", bq, nq, pct); ok {
					out = append(out, v)
				}
			}
			continue
		}
		if d.BaseSeconds < minSeconds {
			continue
		}
		if p := d.SecondsPct(); p > pct {
			out = append(out, fmt.Sprintf("%s: %.3fs -> %.3fs (%+.1f%%) exceeds +%.1f%%",
				d.ID, d.BaseSeconds, d.NewSeconds, p, pct))
		}
	}
	return out
}

// counterGrowth reports a violation when a lower-is-better work counter
// grew by more than pct percent from base to cur. A zero baseline has
// nothing to grow from.
func counterGrowth(id, what string, base, cur int64, pct float64) (string, bool) {
	if base <= 0 {
		return "", false
	}
	p := 100 * float64(cur-base) / float64(base)
	if p <= pct {
		return "", false
	}
	return fmt.Sprintf("%s: %s %d -> %d (%+.1f%%) exceeds +%.1f%% (lower is better)", id, what, base, cur, p, pct), true
}
