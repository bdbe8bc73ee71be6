package main

import (
	"testing"

	"singlingout/internal/obs"
)

// TestConvergeProbeCountsWallClockOnce: the converge probe is one run
// reported as two rows. Each row carries its own converge.queries
// counter, but only q50 carries the run's wall clock, so the BENCH
// summary's total_seconds counts the probe once.
func TestConvergeProbeCountsWallClockOnce(t *testing.T) {
	var events []obs.Event
	if err := benchConvergeProbe(func(e obs.Event) { events = append(events, e) }, 1); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].ID != "BENCH.converge.q50" || events[1].ID != "BENCH.converge.q90" {
		t.Fatalf("probe emitted %d events %v, want the q50 and q90 rows", len(events), events)
	}
	var queries [2]int64
	for i, e := range events {
		if e.Phase != "experiment" || e.Seed != 1 {
			t.Errorf("row %s: phase %q seed %d, want experiment at seed 1", e.ID, e.Phase, e.Seed)
		}
		if e.Sizes["n"] != 64 || e.Sizes["chunk"] != 16 || e.Sizes["queries"] != 4*64 {
			t.Errorf("row %s: sizes %v, want n=64 chunk=16 queries=256", e.ID, e.Sizes)
		}
		if e.Metrics == nil || e.Metrics.Counters[obs.ConvergeCounter] <= 0 {
			t.Fatalf("row %s carries no %s counter: %+v", e.ID, obs.ConvergeCounter, e.Metrics)
		}
		queries[i] = e.Metrics.Counters[obs.ConvergeCounter]
	}
	if queries[0] > queries[1] || queries[1] > 4*64 {
		t.Errorf("queries to 50%% / 90%% accuracy = %d / %d, want q50 <= q90 <= 256", queries[0], queries[1])
	}
	if events[0].Seconds <= 0 {
		t.Errorf("q50 row carries %v seconds, want the probe's wall clock", events[0].Seconds)
	}
	if events[1].Seconds != 0 {
		t.Errorf("q90 row carries %v seconds, want 0 (the run is counted on q50)", events[1].Seconds)
	}
	sum := obs.SummarizeEvents("test", events)
	if sum.TotalSeconds != events[0].Seconds {
		t.Errorf("total_seconds = %v, want the probe's %v counted once", sum.TotalSeconds, events[0].Seconds)
	}
	for i, e := range sum.Experiments {
		if e.Counters[obs.ConvergeCounter] != queries[i] {
			t.Errorf("summary row %s: %s = %d, want %d", e.ID, obs.ConvergeCounter, e.Counters[obs.ConvergeCounter], queries[i])
		}
	}
}
