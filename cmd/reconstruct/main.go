// Command reconstruct runs the database-reconstruction attacks: the
// Dinur–Nissim exhaustive and LP-decoding attacks (E01, E02), the
// census-style SAT reconstruction with registry re-identification (E11),
// and the Diffix-style LP reconstruction (E13).
//
// Usage:
//
//	reconstruct [-attack all|exhaustive|lp|census|diffix] [-seed 1] [-full] [-stats]
//	            [-stream] [-chunk N]
//	            [-remote http://host:port] [-remote-backend exact] [-analyst name]
//	            [-workers N] [-metrics out.jsonl] [-serve :8088] [-spans out.trace.json]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace trace.out]
//
// -stats appends an obs metrics footer (oracle queries, simplex pivots,
// SAT conflicts, ...) to every table.
//
// The attacks run through experiments.RunSuite, the loop repro and psoctl
// share: each table is followed by an "[ID completed in …]" wall-time
// line, a failing attack does not stop the ones after it, and the exit
// status is 1 if any failed.
//
// -stream runs the attacks anytime: answers are consumed -chunk queries
// at a time with an incremental re-decode after every chunk (LP warm
// starts; SAT learned clauses retained), each step appending one point to
// a convergence curve. With -serve the curve streams live over SSE at
// /converge (and as attack.converge journal events on /journal); the
// final table reports queries-to-X%-accuracy milestones, and the final
// reconstruction is byte-identical to the batch path. In-process -stream
// supports the lp and census attacks; with -remote it streams the
// E02-style sweep's workload against the live qserver.
//
// -remote points the LP-decoding attack at a running qserver instead of an
// in-process oracle: it dials the server, regenerates the ground truth
// locally from the advertised (seed, n, p), and runs the E02.remote sweep
// over the wire. -remote-backend selects the server oracle (exact,
// laplace, diffix) and -analyst the budget-accounting identity. Against
// the exact backend the table is byte-identical to the same sweep run
// in-process at the same seed.
//
// -metrics records a JSONL run journal (one event per attack); -serve
// exposes the live observability HTTP endpoint (Prometheus /metrics,
// /snapshot, /healthz, SSE /journal, /debug/pprof/) while the attacks run;
// -spans exports the worker pool's Chrome trace-event timeline. Combined
// with -remote, the qserver's server-side spans are fetched from its
// /trace endpoint after the sweep and merged into the same export as a
// second Perfetto process, interleaved with the client's lanes and
// filtered to this run's wire trace id.
//
// -workers sizes the worker pool the parallel harnesses fan out on
// (0 = GOMAXPROCS). Per-item randomness derives from (seed, item index),
// so tables are byte-identical at every worker count.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"

	"singlingout/internal/experiments"
	"singlingout/internal/obs"
	"singlingout/internal/obs/serve"
	"singlingout/internal/query"
	"singlingout/internal/query/remote"
	"singlingout/internal/synth"
)

func main() {
	attack := flag.String("attack", "all", "attack to run: all, exhaustive, lp, census, diffix")
	seed := flag.Int64("seed", 1, "random seed")
	full := flag.Bool("full", false, "run publication-size experiments (slower)")
	stats := flag.Bool("stats", false, "append an obs metrics footer to every table")
	workers := flag.Int("workers", 0, "worker-pool size for parallel attacks (0 = GOMAXPROCS); output is identical at any value")
	stream := flag.Bool("stream", false, "run the attack anytime: incremental decodes with a live convergence curve (lp/census attacks; also with -remote)")
	chunk := flag.Int("chunk", 32, "answers ingested per streaming step with -stream (<= 0 picks n/4)")
	remoteURL := flag.String("remote", "", "attack a running qserver at this base URL instead of in-process oracles")
	remoteBackend := flag.String("remote-backend", "exact", "qserver backend to attack: exact, laplace, diffix")
	analyst := flag.String("analyst", "", "budget-accounting identity sent to the qserver")
	tool := serve.AddToolFlags(flag.CommandLine, "reconstruct")
	flag.Parse()
	experiments.SetWorkers(*workers)

	if err := tool.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "reconstruct: %v\n", err)
		os.Exit(1)
	}
	// ^C / SIGTERM cancels the context threaded through the attack
	// harnesses (and any in-flight remote batch), so an interrupted run
	// still flushes its journal and profiles below.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	var o *remote.Oracle
	var runners []experiments.Runner
	var err error
	switch {
	case *remoteURL != "":
		o, runners, err = remoteRunners(ctx, *remoteURL, *remoteBackend, *analyst, *stream, *chunk)
	case *stream:
		runners, err = streamRunners(*attack, *chunk)
	default:
		runners, err = attackRunners(*attack)
	}
	status := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "reconstruct: %v\n", err)
	} else {
		if *stream {
			announceConverge(tool)
		}
		status = experiments.RunSuite(ctx, tool, os.Stdout, runners, *seed, !*full, *stats)
		if o != nil {
			mergeServerTrace(ctx, tool, o, *remoteURL)
		}
	}
	stopSignals()
	if err := tool.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "reconstruct: %v\n", err)
		if status == 0 {
			status = 1
		}
	}
	os.Exit(status)
}

// remoteRunners dials a qserver and returns the LP-decoding sweep against
// it: ground truth is regenerated locally from the server's advertised
// metadata, never transmitted. With stream it is the anytime variant
// instead — the workload answered chunk queries at a time, the
// convergence curve streaming over /converge while the attack runs.
func remoteRunners(ctx context.Context, baseURL, backend, analyst string, stream bool, chunk int) (*remote.Oracle, []experiments.Runner, error) {
	o, err := remote.Dial(ctx, baseURL, remote.Options{Backend: backend, Analyst: analyst})
	if err != nil {
		return nil, nil, err
	}
	meta := o.Meta()
	fmt.Fprintf(os.Stderr, "reconstruct: attacking %s backend %q (n=%d seed=%d budget=%d)\n",
		baseURL, backend, meta.N, meta.Seed, meta.Budget)
	truth := remote.Dataset(meta.Seed, meta.N, meta.P)
	id := "E02.remote"
	if stream {
		id = "E02.stream"
	}
	r := experiments.Runner{ID: id, Run: func(ctx context.Context, seed int64, quick bool) (tab *experiments.Table, err error) {
		if stream {
			tab, _, err = experiments.E02StreamOverOracle(ctx, o, truth, seed, chunk, obs.DefaultCurves())
		} else {
			tab, err = experiments.E02OverOracle(ctx, o, truth, seed, quick)
		}
		if errors.Is(err, query.ErrBudgetExhausted) {
			err = fmt.Errorf("the server's query budget ran out mid-attack — the defense held: %w", err)
		}
		return tab, err
	}}
	return o, []experiments.Runner{r}, nil
}

// mergeServerTrace folds the qserver's server-side spans into the local
// Chrome trace export (-spans): it fetches the server's /trace dump,
// keeps the spans stamped with this client's wire trace id, and merges
// them as a second Perfetto process lane next to the client's own. A
// server without the obs endpoint (or an older one) degrades to a
// client-only trace with a note, never a failed run.
func mergeServerTrace(ctx context.Context, tool *serve.Tool, o *remote.Oracle, baseURL string) {
	if !tool.SpanExport() {
		return
	}
	dump, err := o.FetchTrace(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reconstruct: no server spans merged (%v); the trace will be client-only\n", err)
		return
	}
	kept := dump.Events[:0]
	for _, e := range dump.Events {
		if e.Args["trace"] == o.TraceID() {
			kept = append(kept, e)
		}
	}
	dump.Events = kept
	dump.Process = "qserver " + baseURL
	obs.DefaultTracer().AddProcess(dump)
	fmt.Fprintf(os.Stderr, "reconstruct: merged %d server spans (trace %s) into the span export\n",
		len(kept), o.TraceID())
}

// attackRunners returns the batch experiments behind an -attack name.
func attackRunners(attack string) ([]experiments.Runner, error) {
	byName := map[string][]string{
		"exhaustive": {"E01"},
		"lp":         {"E02", "A01"},
		"census":     {"E11"},
		"diffix":     {"E13"},
		"all":        {"E01", "E02", "A01", "E11", "E13"},
	}
	ids, ok := byName[attack]
	if !ok {
		return nil, fmt.Errorf("unknown attack %q", attack)
	}
	runners := make([]experiments.Runner, len(ids))
	for i, id := range ids {
		runners[i], _ = experiments.ByID(id)
	}
	return runners, nil
}

// announceConverge points the operator at the live curve endpoints when
// the observability server is up.
func announceConverge(tool *serve.Tool) {
	if addr := tool.Addr(); addr != "" {
		fmt.Fprintf(os.Stderr, "reconstruct: live convergence curve at http://%s/converge (SSE with Accept: text/event-stream)\n", addr)
	}
}

// streamRunners returns the in-process attacks run anytime: the LP
// decoder over an exact oracle and/or the census SAT pipeline, each
// re-solving incrementally and appending points to the default
// convergence curves (journal attack.converge events; /converge when
// serving). The final tables report queries-to-accuracy milestones; the
// reconstructions match the batch path bit for bit.
func streamRunners(attack string, chunk int) ([]experiments.Runner, error) {
	var runners []experiments.Runner
	if attack == "lp" || attack == "all" {
		runners = append(runners, experiments.Runner{ID: "E02.stream", Run: func(ctx context.Context, seed int64, quick bool) (*experiments.Table, error) {
			n := 128
			if quick {
				n = 48
			}
			x := synth.BinaryDataset(rand.New(rand.NewSource(seed)), n, 0.5)
			tab, _, err := experiments.E02StreamOverOracle(ctx, &query.Exact{X: x}, x, seed, chunk, obs.DefaultCurves())
			return tab, err
		}})
	}
	if attack == "census" || attack == "all" {
		runners = append(runners, experiments.Runner{ID: "E11.stream", Run: func(ctx context.Context, seed int64, quick bool) (*experiments.Table, error) {
			tab, _, err := experiments.E11StreamConverge(ctx, seed, quick, obs.DefaultCurves())
			return tab, err
		}})
	}
	if len(runners) == 0 {
		return nil, fmt.Errorf("-stream supports the lp and census attacks (got -attack %q)", attack)
	}
	return runners, nil
}
