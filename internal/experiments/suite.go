package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"singlingout/internal/obs"
	"singlingout/internal/obs/serve"
)

// RunSuite runs runners in order as one journaled suite — the loop behind
// repro, psoctl and reconstruct. It emits run_start; for each runner it
// sets the /healthz phase, runs it (instrumented when stats is set or the
// tool journals), emits one experiment event with the wall time, row
// count, metric delta and any error, and prints the table to w — with the
// metrics footer only when stats is set — followed by an
// "[ID completed in …]" line. A failing runner does not stop the suite:
// every runner is attempted, the failures are listed on stderr at the
// end, and the returned exit status is 1 if any failed. run_end closes
// the journal bracket.
func RunSuite(ctx context.Context, tool *serve.Tool, w io.Writer, runners []Runner, seed int64, quick, stats bool) int {
	tool.Emit(obs.Event{
		Phase: "run_start",
		Seed:  seed,
		Quick: quick,
		Sizes: map[string]int{"experiments": len(runners)},
	})
	var failures []string
	fail := func(id string, err error) {
		failures = append(failures, fmt.Sprintf("%s: %v", id, err))
		fmt.Fprintf(os.Stderr, "%s: %s: %v\n", tool.Name(), id, err)
	}
	run := obs.StartStopwatch()
	for _, r := range runners {
		tool.SetPhase(r.ID)
		watch := obs.StartStopwatch()
		var tab *Table
		var delta obs.Snapshot
		var err error
		if stats || tool.Observing() {
			tab, delta, err = r.RunInstrumented(ctx, seed, quick)
		} else {
			tab, err = r.Run(ctx, seed, quick)
		}
		elapsed := watch.Elapsed()
		ev := obs.Event{
			Phase:   "experiment",
			ID:      r.ID,
			Seed:    seed,
			Quick:   quick,
			Seconds: elapsed.Seconds(),
		}
		if !delta.Empty() {
			ev.Metrics = &delta
		}
		if err != nil {
			ev.Error = err.Error()
			tool.Emit(ev)
			fail(r.ID, err)
			continue
		}
		ev.Sizes = map[string]int{"rows": len(tab.Rows)}
		tool.Emit(ev)
		if !stats {
			// The footer stays opt-in even when a journal forced the
			// instrumented path.
			tab.Metrics = obs.Snapshot{}
		}
		if err := tab.Fprint(w); err != nil {
			fail(r.ID, err)
			continue
		}
		fmt.Fprintf(w, "  [%s completed in %s]\n\n", r.ID, elapsed.Round(time.Millisecond))
	}
	tool.Emit(obs.Event{
		Phase:   "run_end",
		Seed:    seed,
		Quick:   quick,
		Seconds: run.Elapsed().Seconds(),
		Sizes:   map[string]int{"experiments": len(runners), "failures": len(failures)},
	})
	tool.SetPhase("done")
	if len(failures) == 0 {
		return 0
	}
	fmt.Fprintf(os.Stderr, "%s: %d of %d experiments failed:\n", tool.Name(), len(failures), len(runners))
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "  %s\n", f)
	}
	return 1
}
