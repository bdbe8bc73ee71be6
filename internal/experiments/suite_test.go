package experiments

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"singlingout/internal/obs"
	"singlingout/internal/obs/serve"
)

// fakeRunner returns a one-row table after bumping a counter, so an
// instrumented run has a non-empty metric delta for the footer; with err
// set it fails instead.
func fakeRunner(id string, err error) Runner {
	return Runner{ID: id, Run: func(context.Context, int64, bool) (*Table, error) {
		obs.Default().Counter("query.count").Add(1)
		if err != nil {
			return nil, err
		}
		t := &Table{ID: id, Title: "fake", Header: []string{"k"}}
		t.AddRow("v")
		return t, nil
	}}
}

// runSuiteJournaled runs runners through RunSuite on a tool journaling to
// a temp file and returns the status, stdout and the journal's events.
func runSuiteJournaled(t *testing.T, runners []Runner, stats bool) (int, string, []obs.Event) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tool := serve.AddToolFlags(fs, "suite")
	if err := fs.Parse([]string{"-metrics", path}); err != nil {
		t.Fatal(err)
	}
	wasEnabled := obs.Default().Enabled()
	defer obs.Default().SetEnabled(wasEnabled)
	if err := tool.Start(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	status := RunSuite(context.Background(), tool, &out, runners, 7, true, stats)
	if err := tool.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	return status, out.String(), events
}

func TestRunSuiteKeepsGoingPastFailure(t *testing.T) {
	runners := []Runner{
		fakeRunner("X01", nil),
		fakeRunner("X02", errors.New("boom")),
		fakeRunner("X03", nil),
	}
	status, out, events := runSuiteJournaled(t, runners, false)
	if status != 1 {
		t.Errorf("status = %d with a failed runner, want 1", status)
	}
	for _, id := range []string{"X01", "X03"} {
		if !strings.Contains(out, id+" — fake") || !strings.Contains(out, "  ["+id+" completed in ") {
			t.Errorf("%s table or completion line missing from stdout:\n%s", id, out)
		}
	}
	if strings.Contains(out, "X02") {
		t.Errorf("failed runner printed to stdout:\n%s", out)
	}

	var phases []string
	for _, e := range events {
		phases = append(phases, e.Phase+":"+e.ID)
	}
	want := []string{"run_start:", "experiment:X01", "experiment:X02", "experiment:X03", "run_end:"}
	if strings.Join(phases, " ") != strings.Join(want, " ") {
		t.Fatalf("journal = %v, want %v", phases, want)
	}
	if e := events[2]; e.Error != "boom" {
		t.Errorf("failed runner's event Error = %q, want boom", e.Error)
	}
	for _, e := range []obs.Event{events[1], events[3]} {
		if e.Error != "" || e.Sizes["rows"] != 1 || e.Metrics == nil || e.Metrics.Counters["query.count"] != 1 {
			t.Errorf("%s event = %+v, want rows=1, query.count=1, no error", e.ID, e)
		}
	}
	if end := events[4]; end.Sizes["experiments"] != 3 || end.Sizes["failures"] != 1 {
		t.Errorf("run_end sizes = %v", end.Sizes)
	}
}

func TestRunSuiteFooterOnlyWithStats(t *testing.T) {
	runners := []Runner{fakeRunner("X01", nil)}
	for _, stats := range []bool{false, true} {
		status, out, events := runSuiteJournaled(t, runners, stats)
		if status != 0 {
			t.Errorf("stats=%v: status = %d", stats, status)
		}
		// The journal is on either way, so the delta is always recorded;
		// only the printed footer follows stats.
		if len(events) != 3 || events[1].Metrics == nil {
			t.Errorf("stats=%v: journal = %+v, want an experiment event with metrics", stats, events)
		}
		if got := strings.Contains(out, "  metrics:\n    query.count"); got != stats {
			t.Errorf("stats=%v: footer printed = %v:\n%s", stats, got, out)
		}
	}
}
