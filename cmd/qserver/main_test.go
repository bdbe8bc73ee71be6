package main

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"singlingout/internal/obs"
	"singlingout/internal/query/remote"
)

// TestServeRoundTrip boots the real qserver main loop on a random port,
// drives the query API and the observability surface over HTTP, then
// shuts it down with SIGTERM and checks the journal it wrote.
func TestServeRoundTrip(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "journal.jsonl")
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0", "-n", "24", "-seed", "7", "-budget", "50",
			"-metrics", journalPath,
		}, func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	o, err := remote.Dial(ctx, base, remote.Options{Analyst: "t", Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	meta := o.Meta()
	if meta.N != 24 || meta.Seed != 7 || meta.Budget != 50 {
		t.Fatalf("meta = %+v", meta)
	}
	answers, err := o.Answer(ctx, [][]int{{0, 1, 2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	truth := remote.Dataset(7, 24, 0.5)
	if want := float64(truth[0] + truth[1] + truth[2]); answers[0] != want {
		t.Errorf("exact answer = %v, want %v", answers[0], want)
	}

	// The observability surface shares the listener.
	for _, path := range []string{"/healthz", "/metrics", "/snapshot"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s returned %s", path, resp.Status)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case status := <-done:
		if status != 0 {
			t.Fatalf("run exited %d", status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never shut down")
	}

	raw, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	var phases []string
	for _, e := range events {
		phases = append(phases, e.Phase)
	}
	joined := strings.Join(phases, ",")
	if !strings.Contains(joined, "serve_start") || !strings.Contains(joined, "query_batch") || !strings.Contains(joined, "serve_end") {
		t.Errorf("journal phases = %v, want serve_start/query_batch/serve_end", phases)
	}
}

// TestRestartResumesWAL boots qserver with a ledger WAL, spends budget,
// SIGTERMs it, boots a second process over the same WAL, and checks the
// spend survived — the full-process version of the
// restart-durability guarantee.
func TestRestartResumesWAL(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ledger.wal")
	boot := func() (string, chan int) {
		ready := make(chan string, 1)
		done := make(chan int, 1)
		args := []string{"-addr", "127.0.0.1:0", "-n", "24", "-seed", "7", "-budget", "10", "-wal", walPath}
		go func() { done <- run(args, func(addr string) { ready <- addr }) }()
		select {
		case addr := <-ready:
			return "http://" + addr, done
		case <-time.After(10 * time.Second):
			t.Fatal("server never became ready")
			return "", nil
		}
	}
	stop := func(done chan int) {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case status := <-done:
			if status != 0 {
				t.Fatalf("run exited %d", status)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("server never shut down")
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	base, done := boot()
	o, err := remote.Dial(ctx, base, remote.Options{Analyst: "alice", Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Answer(ctx, [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6}}); err != nil {
		t.Fatal(err)
	}
	stop(done)

	base2, done2 := boot()
	defer stop(done2)
	o2, err := remote.Dial(ctx, base2, remote.Options{Analyst: "alice", Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := o2.FetchLedger(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if lr.Totals["alice"] != 7 {
		t.Fatalf("restarted server remembers %d spent, want 7", lr.Totals["alice"])
	}
	// 4 more fresh queries would exceed the budget of 10.
	if _, err := o2.Answer(ctx, [][]int{{7}, {8}, {9}, {10}}); err == nil {
		t.Fatal("over-budget batch should fail after restart — spent epsilon must survive")
	}
	if _, err := o2.Answer(ctx, [][]int{{7}, {8}, {9}}); err != nil {
		t.Fatal(err)
	}
}

func TestBadFlags(t *testing.T) {
	if got := run([]string{"-n", "0"}, nil); got != 1 {
		t.Errorf("run with n=0 returned %d, want 1", got)
	}
	if got := run([]string{"-definitely-not-a-flag"}, nil); got != 2 {
		t.Errorf("run with a bad flag returned %d, want 2", got)
	}
}
