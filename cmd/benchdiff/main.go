// Command benchdiff compares two BENCH_<rev>.json performance summaries
// (as written by cmd/repro -metrics) and prints a per-experiment delta
// table: wall-clock seconds plus every work counter that moved (oracle
// queries, simplex pivots, SAT conflicts, ...).
//
// Usage:
//
//	benchdiff [-gate pct] [-min seconds] BENCH_base.json BENCH_new.json
//
// With -gate, benchdiff exits nonzero when any baseline row is missing
// from the new summary, ran clean in the baseline but errored in the new
// run, or regressed in wall clock by more than pct percent. -min sets the
// baseline floor below which a row is too fast to gate on its wall clock
// (timing noise). Three deterministic work counters are gated
// lower-is-better by the same percentage, with no wall-clock floor:
// converge.queries on the BENCH.converge. rows, and lp.pivots and
// lp.phase1_pivots on every row that carries them in both summaries. The
// Makefile ci target runs the gate against the committed
// BENCH_baseline.json so the repository's performance trajectory is
// enforced, not just recorded.
package main

import (
	"flag"
	"fmt"
	"os"

	"singlingout/internal/obs"
)

func main() {
	gate := flag.Float64("gate", -1, "exit nonzero when a baseline row is missing or regresses by more than this percent (negative: report only)")
	min := flag.Float64("min", 0.05, "ignore wall-clock regressions on experiments whose baseline is below this many seconds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [-gate pct] [-min seconds] BENCH_base.json BENCH_new.json\n")
		os.Exit(2)
	}

	base, err := obs.ReadBenchFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	cur, err := obs.ReadBenchFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	diff := obs.DiffBench(base, cur)
	if err := diff.Fprint(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if *gate < 0 {
		return
	}
	if violations := diff.Regressions(*gate, *min); len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d gate violation(s) (threshold +%.1f%%):\n", len(violations), *gate)
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Printf("gate ok: every baseline row present; no wall-clock (baseline floor %.2fs), lp.pivots, lp.phase1_pivots or converge.queries regression beyond +%.1f%%\n", *min, *gate)
}
