// Command psoctl runs the predicate-singling-out experiment suite (E04 –
// E10, E15, E16 and the PSO ablations) and prints the measured tables.
//
// Usage:
//
//	psoctl [-id E08] [-seed 1] [-full] [-list] [-stats]
//	       [-metrics out.jsonl] [-serve :8088] [-spans out.trace.json]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace trace.out]
//
// Without -id it runs every PSO experiment; -full uses the publication
// sizes recorded in EXPERIMENTS.md instead of the quick CI sizes. -stats
// appends an obs metrics footer (trials, isolations, count queries, ...)
// to every table.
//
// The suite runs through experiments.RunSuite, the loop repro and
// reconstruct share: each table is followed by an "[ID completed in …]"
// wall-time line, a failing experiment does not stop the ones after it,
// and the exit status is 1 if any failed.
//
// -metrics records a JSONL run journal (one event per experiment); -serve
// exposes the live observability HTTP endpoint (Prometheus /metrics,
// /snapshot, /healthz, SSE /journal, /debug/pprof/) while the suite runs;
// -spans exports the worker pool's Chrome trace-event timeline.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"singlingout/internal/experiments"
	"singlingout/internal/obs/serve"
)

var psoIDs = []string{"E04", "E05", "E06", "E07", "E08", "E09", "E10", "E15", "E16", "A02", "A03"}

func main() {
	id := flag.String("id", "", "single experiment id to run (default: the whole PSO suite)")
	seed := flag.Int64("seed", 1, "random seed")
	full := flag.Bool("full", false, "run publication-size experiments (slower)")
	list := flag.Bool("list", false, "list the experiments in the PSO suite")
	stats := flag.Bool("stats", false, "append an obs metrics footer to every table")
	tool := serve.AddToolFlags(flag.CommandLine, "psoctl")
	flag.Parse()

	if *list {
		for _, eid := range psoIDs {
			r, _ := experiments.ByID(eid)
			fmt.Printf("%s  %s\n", r.ID, r.Desc)
		}
		return
	}

	if err := tool.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "psoctl: %v\n", err)
		os.Exit(1)
	}
	// ^C / SIGTERM cancels the context threaded through every harness, so
	// an interrupted run still flushes its journal and profiles below.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	status := run(ctx, tool, *id, *seed, *full, *stats)
	stopSignals()
	if err := tool.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "psoctl: %v\n", err)
		if status == 0 {
			status = 1
		}
	}
	os.Exit(status)
}

func run(ctx context.Context, tool *serve.Tool, id string, seed int64, full, stats bool) int {
	ids := psoIDs
	if id != "" {
		ids = []string{id}
	}
	runners := make([]experiments.Runner, len(ids))
	for i, eid := range ids {
		r, ok := experiments.ByID(eid)
		if !ok {
			fmt.Fprintf(os.Stderr, "psoctl: unknown experiment %q (try -list)\n", eid)
			return 1
		}
		runners[i] = r
	}
	return experiments.RunSuite(ctx, tool, os.Stdout, runners, seed, !full, stats)
}
