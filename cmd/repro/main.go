// Command repro regenerates every experiment table in DESIGN.md's
// per-experiment index (E01–E16 and the ablations A01–A05). Its full-size
// output is what EXPERIMENTS.md archives.
//
// With -metrics it additionally records a structured JSONL run journal —
// one event per experiment with timing and the obs metric delta (oracle
// queries, simplex pivots, SAT conflicts, ...) — and writes a
// machine-readable BENCH_<rev>.json summary next to the journal.
//
// With -serve the same observability is live: an HTTP endpoint exposes
// Prometheus /metrics, the JSON /snapshot, /healthz (current experiment
// phase + uptime), an SSE /journal tail and the stdlib /debug/pprof/
// handlers while the run executes. With -spans the worker pool's per-item
// spans are exported as a Chrome trace-event JSON timeline (one lane per
// pool worker; load it at ui.perfetto.dev).
//
// Usage:
//
//	repro [-seed 1] [-quick] [-id E02] [-workers N] [-metrics out.jsonl]
//	      [-serve :8088] [-spans out.trace.json]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace trace.out]
//
// -workers sizes the worker pool the parallel harnesses (E01, E02, E11,
// E13, E19) fan out on (0 = GOMAXPROCS). Per-item randomness derives from
// (seed, item index), so tables are byte-identical at every worker count.
// With -metrics, a streamed LP probe also lands as the BENCH.converge
// q50/q90 rows (queries to 50% and 90% accuracy) in the BENCH_<rev>.json
// summary; the experiment rows themselves carry the solver, SAT and
// query counters the bench gate compares.
//
// The experiments run through experiments.RunSuite, the loop psoctl and
// reconstruct share: a failing experiment does not abort the run, every
// experiment is attempted, failures are reported together at the end, and
// the exit status is nonzero if any failed. The converge probe runs after
// the suite has closed its journal bracket.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"singlingout/internal/experiments"
	"singlingout/internal/obs"
	"singlingout/internal/obs/serve"
	"singlingout/internal/par"
	"singlingout/internal/query"
	"singlingout/internal/synth"
)

// benchConvergeProbe measures the anytime LP attack's query efficiency:
// one streamed n=64, m=4n, chunk=16 reconstruction over an exact oracle,
// reporting the cumulative query count at which 50% and 90% accuracy
// were first reached as BENCH.converge.q50/q90 rows. The workload and
// oracle are deterministic per seed, so the converge.queries counter the
// rows carry is noise-free across hosts — benchdiff gates it
// lower-is-better (more queries for the same accuracy = weaker decoder)
// and ignores the rows' wall clock. Both rows come from one run, so its
// wall clock goes on the q50 row only: the summary's total_seconds
// counts the probe once.
func benchConvergeProbe(emit func(obs.Event), seed int64) error {
	const n, chunk = 64, 16
	x := synth.BinaryDataset(par.RNG(seed, 1), n, 0.5)
	start := time.Now()
	_, res, err := experiments.E02StreamOverOracle(context.Background(), &query.Exact{X: x}, x, seed, chunk, obs.NewCurveSet())
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()
	for _, row := range []struct {
		id      string
		th      float64
		seconds float64
	}{{"BENCH.converge.q50", 0.5, elapsed}, {"BENCH.converge.q90", 0.9, 0}} {
		q, ok := res.ToAccuracy[row.th]
		if !ok {
			return fmt.Errorf("accuracy %.0f%% never reached over %d queries", 100*row.th, res.Queries)
		}
		emit(obs.Event{
			Phase:   "experiment",
			ID:      row.id,
			Seed:    seed,
			Seconds: row.seconds,
			Sizes:   map[string]int{"n": n, "queries": res.Queries, "chunk": chunk},
			Metrics: &obs.Snapshot{Counters: map[string]int64{obs.ConvergeCounter: int64(q)}},
		})
	}
	return nil
}

// writeBench folds the finished journal back into a BENCH_<rev>.json
// summary written beside it.
func writeBench(journalPath string) (string, error) {
	f, err := os.Open(journalPath)
	if err != nil {
		return "", err
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		return "", err
	}
	sum := obs.SummarizeEvents(obs.GitRev("."), events)
	return sum.WriteFile(filepath.Dir(journalPath))
}

func main() {
	seed := flag.Int64("seed", 1, "random seed")
	quick := flag.Bool("quick", false, "CI-size runs instead of publication sizes")
	id := flag.String("id", "", "run a single experiment id")
	workers := flag.Int("workers", 0, "worker-pool size for parallel harnesses (0 = GOMAXPROCS); output is identical at any value")
	tool := serve.AddToolFlags(flag.CommandLine, "repro")
	flag.Parse()
	experiments.SetWorkers(*workers)

	if err := tool.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}
	// ^C / SIGTERM cancels the context threaded through every harness, so
	// an interrupted run still flushes its journal and profiles below.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	status := run(ctx, tool, *seed, *quick, *id)
	stopSignals()
	// Close flushes profiles, the span timeline and the journal; losing any
	// of them is a failure even when the experiments succeeded.
	if err := tool.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		if status == 0 {
			status = 1
		}
	}
	os.Exit(status)
}

func run(ctx context.Context, tool *serve.Tool, seed int64, quick bool, id string) int {
	runners := experiments.All()
	if id != "" {
		r, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "repro: unknown experiment %q\n", id)
			return 1
		}
		runners = []experiments.Runner{r}
	}
	// The metrics footer follows the journal, so plain stdout stays the
	// archived tables (and the golden file) byte for byte.
	status := experiments.RunSuite(ctx, tool, os.Stdout, runners, seed, quick, tool.Observing())
	if tool.Observing() {
		tool.SetPhase("bench_probe")
		if err := benchConvergeProbe(tool.Emit, seed); err != nil {
			fmt.Fprintf(os.Stderr, "repro: converge bench probe: %v\n", err)
		}
		tool.SetPhase("done")
	}
	if path := tool.MetricsPath(); path != "" {
		if benchPath, err := writeBench(path); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		} else {
			fmt.Printf("  [journal %s, summary %s]\n", path, benchPath)
		}
	}
	return status
}
