// Command benchdiff compares two BENCH_<rev>.json performance summaries
// (as written by cmd/repro -metrics) and prints a per-experiment delta
// table: wall-clock seconds plus every work counter that moved (oracle
// queries, simplex pivots, SAT conflicts, ...).
//
// Usage:
//
//	benchdiff [-gate pct] [-min seconds] [-require prefixes] BENCH_base.json BENCH_new.json
//
// With -gate, benchdiff exits nonzero when any experiment's wall-clock
// regressed by more than pct percent against the baseline (or ran clean in
// the baseline but errored in the new run). Two deterministic work
// counters are gated lower-is-better by the same percentage, with no
// wall-clock floor: converge.queries on the BENCH.converge. rows, and
// lp.pivots on every row that carries it in both summaries. -min sets the baseline floor
// below which an experiment is too fast to gate on (timing noise).
// -require takes comma-separated id prefixes: any baseline row matching a
// prefix must also appear in the new summary, so probe rows (e.g.
// BENCH.remote.) cannot silently vanish from the trajectory. The Makefile
// ci target runs the gate against the committed BENCH_baseline.json so the
// repository's performance trajectory is enforced, not just recorded.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"singlingout/internal/obs"
)

func main() {
	gate := flag.Float64("gate", -1, "exit nonzero when any experiment regresses by more than this percent (negative: report only)")
	min := flag.Float64("min", 0.05, "ignore regressions on experiments whose baseline wall-clock is below this many seconds")
	require := flag.String("require", "", "comma-separated id prefixes; baseline rows matching one must also exist in the new summary")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [-gate pct] [-min seconds] [-require prefixes] BENCH_base.json BENCH_new.json\n")
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
	if *require != "" {
		var prefixes []string
		for _, p := range strings.Split(*require, ",") {
			if p = strings.TrimSpace(p); p != "" {
				prefixes = append(prefixes, p)
			}
		}
		if missing := diff.MissingFromNew(prefixes); len(missing) > 0 {
			fmt.Fprintf(os.Stderr, "benchdiff: %d required row(s) missing:\n", len(missing))
			for _, m := range missing {
				fmt.Fprintf(os.Stderr, "  %s\n", m)
			}
			os.Exit(1)
		}
	}
	if *gate < 0 {
		return
	}
	if violations := diff.Regressions(*gate, *min); len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s) beyond +%.1f%%:\n", len(violations), *gate)
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Printf("gate ok: no wall-clock (baseline floor %.2fs), lp.pivots or converge.queries regression beyond +%.1f%%\n", *min, *gate)
}
