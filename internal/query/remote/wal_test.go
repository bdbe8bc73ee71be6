package remote_test

import (
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"singlingout/internal/query"
	"singlingout/internal/query/remote"
)

// dialAnalyst dials ts as one analyst against one backend with fast
// retries.
func dialAnalyst(t *testing.T, url, backend, analyst string) *remote.Oracle {
	t.Helper()
	opts := fastOpts()
	opts.Backend = backend
	opts.Analyst = analyst
	o, err := remote.Dial(ctx, url, opts)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestWALRestartKeepsSpentBudget is the restart-durability acceptance
// test: epsilon spent before a restart is still spent after it. The
// second server even runs a different shard count, proving the WAL is
// portable across serving topologies (partitioning is recomputed per
// analyst on replay).
func TestWALRestartKeepsSpentBudget(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ledger.wal")
	cfg := remote.ServerConfig{Seed: 3, Budget: 8, WALPath: walPath}

	srv, ts := newTestServer(t, cfg)
	o := dialAnalyst(t, ts.URL, "laplace", "alice")
	if _, err := o.Answer(ctx, [][]int{{0}, {1}, {2}, {3}, {4}, {5}}); err != nil {
		t.Fatal(err)
	}
	if got := srv.BudgetSpent("alice"); got != 6 {
		t.Fatalf("spent %d fresh queries, want 6", got)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart from the WAL, under a different shard count.
	cfg.Shards = 3
	srv2, ts2 := newTestServer(t, cfg)
	if got := srv2.BudgetSpent("alice"); got != 6 {
		t.Fatalf("restarted server remembers %d spent, want 6 — a restart must never refund epsilon", got)
	}
	o2 := dialAnalyst(t, ts2.URL, "laplace", "alice")
	// 3 more fresh queries would exceed the budget of 8.
	if _, err := o2.Answer(ctx, [][]int{{6}, {7}, {8}}); !errors.Is(err, query.ErrBudgetExhausted) {
		t.Fatalf("over-budget batch after restart: err = %v, want ErrBudgetExhausted", err)
	}
	// 2 fit exactly.
	if _, err := o2.Answer(ctx, [][]int{{6}, {7}}); err != nil {
		t.Fatal(err)
	}
	if got := srv2.BudgetSpent("alice"); got != 8 {
		t.Fatalf("spent %d after restart+spend, want 8", got)
	}

	// The on-disk history replays cleanly to the enforced state, denial
	// included.
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := remote.ReadWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	totals, err := remote.ReplayLedger(entries)
	if err != nil {
		t.Fatalf("WAL does not replay: %v", err)
	}
	if totals["alice"] != 8 {
		t.Fatalf("WAL replays to %d spent, want 8", totals["alice"])
	}
}

// TestWALRestartRechargesCachedQueries pins the conservative direction
// of non-persistence: the answer cache is not durable, so a query that
// was free (cached) before the restart charges budget again after it.
// Over-charging across restarts is acceptable; under-charging never is.
func TestWALRestartRechargesCachedQueries(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ledger.wal")
	cfg := remote.ServerConfig{Seed: 5, WALPath: walPath}

	srv, ts := newTestServer(t, cfg)
	o := dialAnalyst(t, ts.URL, "exact", "bob")
	batch := [][]int{{1}, {2}}
	first, err := o.Answer(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Answer(ctx, batch); err != nil { // cached: free
		t.Fatal(err)
	}
	if got := srv.BudgetSpent("bob"); got != 2 {
		t.Fatalf("spent %d before restart, want 2 (repeat was cached)", got)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newTestServer(t, cfg)
	o2 := dialAnalyst(t, ts2.URL, "exact", "bob")
	second, err := o2.Answer(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("answer %d changed across restart: %v -> %v", i, first[i], second[i])
		}
	}
	if got := srv2.BudgetSpent("bob"); got != 4 {
		t.Fatalf("spent %d after restart re-ask, want 4 (cache is not durable, the charge repeats)", got)
	}
}

// TestWALTornTailTolerated: a crash mid-append leaves a torn final line;
// replay drops it (the entry never took effect in memory either) and the
// server restarts cleanly on the intact prefix.
func TestWALTornTailTolerated(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ledger.wal")
	cfg := remote.ServerConfig{Seed: 7, Budget: 10, WALPath: walPath}

	srv, ts := newTestServer(t, cfg)
	o := dialAnalyst(t, ts.URL, "exact", "carol")
	if _, err := o.Answer(ctx, [][]int{{0}, {1}, {2}}); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":99,"analyst":"carol","op":"spe`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	entries, err := remote.ReadWAL(walPath)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if len(entries) != 1 {
		t.Fatalf("replayed %d entries, want the 1 intact one", len(entries))
	}
	srv2, ts2 := newTestServer(t, cfg)
	if got := srv2.BudgetSpent("carol"); got != 3 {
		t.Fatalf("restart over torn tail remembers %d, want 3", got)
	}

	// Spending after the torn tail must not merge the new entry into the
	// fragment: the next restart replays both spends, 3 + 2.
	o2 := dialAnalyst(t, ts2.URL, "exact", "carol")
	if _, err := o2.Answer(ctx, [][]int{{3}, {4}}); err != nil {
		t.Fatal(err)
	}
	ts2.Close()
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	srv3, _ := newTestServer(t, cfg)
	if got := srv3.BudgetSpent("carol"); got != 5 {
		t.Fatalf("restart after spending past a torn tail remembers %d, want 5 — spent epsilon was refunded", got)
	}
}

// TestWALCrashAtEveryOffset enumerates crash points: a multi-entry WAL
// is cut at every byte offset, then the server boots, spends and
// reboots. Boot must never refuse, the first boot must remember exactly
// the entries whose lines survived whole, and the reboot must remember
// those plus the new spend — spent budget never decreases.
func TestWALCrashAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	cfg := remote.ServerConfig{N: 32, P: 0.5, Seed: 9, WALPath: full}
	srv, ts := newTestServer(t, cfg)
	for i, analyst := range []string{"dave", "erin", "dave", "erin"} {
		o := dialAnalyst(t, ts.URL, "exact", analyst)
		batch := make([][]int, i+1)
		for j := range batch {
			batch[j] = []int{8*i + j}
		}
		if _, err := o.Answer(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := remote.ReadWAL(full)
	if err != nil || len(entries) != 4 {
		t.Fatalf("setup WAL: %d entries, err %v", len(entries), err)
	}

	// spentAt(k) is dave's spend over the entries whose whole line,
	// newline included, lies within the first k bytes.
	var lineEnds []int
	for i, b := range data {
		if b == '\n' {
			lineEnds = append(lineEnds, i+1)
		}
	}
	spentAt := func(k int) int {
		spent := 0
		for i, end := range lineEnds {
			if end <= k && entries[i].Analyst == "dave" {
				spent = entries[i].Cumulative
			}
		}
		return spent
	}

	cut := filepath.Join(dir, "cut.wal")
	cfg.WALPath = cut
	for k := 0; k <= len(data); k++ {
		if err := os.WriteFile(cut, data[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		boot, err := remote.NewServer(cfg)
		if err != nil {
			t.Fatalf("cut at %d/%d: boot refused: %v", k, len(data), err)
		}
		want := spentAt(k)
		if got := boot.BudgetSpent("dave"); got != want {
			t.Fatalf("cut at %d: boot remembers %d spent, want %d", k, got, want)
		}
		ts := httptest.NewServer(boot.Handler())
		o := dialAnalyst(t, ts.URL, "exact", "dave")
		if _, err := o.Answer(ctx, [][]int{{1}, {2}}); err != nil {
			t.Fatalf("cut at %d: spend: %v", k, err)
		}
		ts.Close()
		if err := boot.Close(); err != nil {
			t.Fatal(err)
		}
		reboot, err := remote.NewServer(cfg)
		if err != nil {
			t.Fatalf("cut at %d: reboot refused: %v", k, err)
		}
		if got := reboot.BudgetSpent("dave"); got != want+2 {
			t.Fatalf("cut at %d: reboot remembers %d spent, want %d — spent budget decreased", k, got, want+2)
		}
		if err := reboot.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALCorruptionRefusesToServe: an undecodable line in the middle of
// the log is corruption, not a torn tail — replay and server
// construction both fail loudly rather than serving a smaller spend.
func TestWALCorruptionRefusesToServe(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ledger.wal")
	content := `{"seq":1,"analyst":"a","op":"spend","backend":"exact","query_hash":"h","cost":1,"cumulative":1}
not json at all
{"seq":2,"analyst":"a","op":"spend","backend":"exact","query_hash":"h","cost":1,"cumulative":2}
`
	if err := os.WriteFile(walPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.ReadWAL(walPath); err == nil {
		t.Fatal("mid-file corruption must fail ReadWAL")
	}
	if _, err := remote.NewServer(remote.ServerConfig{N: 16, P: 0.5, WALPath: walPath}); err == nil {
		t.Fatal("a server must refuse to start on a corrupt WAL")
	}
}

// TestWALTamperFailsReplay: a WAL whose cumulative chain has been edited
// fails the ReplayLedger cross-check at startup.
func TestWALTamperFailsReplay(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ledger.wal")
	content := `{"seq":1,"analyst":"a","op":"spend","backend":"exact","query_hash":"h","cost":1,"cumulative":1}
{"seq":2,"analyst":"a","op":"spend","backend":"exact","query_hash":"h","cost":1,"cumulative":5}
`
	if err := os.WriteFile(walPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.NewServer(remote.ServerConfig{N: 16, P: 0.5, WALPath: walPath}); err == nil {
		t.Fatal("a server must refuse a WAL whose cumulative chain does not replay")
	}
}
