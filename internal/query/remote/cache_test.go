package remote_test

import (
	"testing"

	"singlingout/internal/query/remote"
)

// TestCacheCrossAnalyst: the answer cache is keyed by query, not
// analyst — a query one analyst paid for is cached (free) for the next.
func TestCacheCrossAnalyst(t *testing.T) {
	srv, ts := newTestServer(t, remote.ServerConfig{Seed: 23, Budget: 10})
	a := dialAnalyst(t, ts.URL, "exact", "alice")
	b := dialAnalyst(t, ts.URL, "exact", "bob")
	batch := [][]int{{0}, {1}, {2}}
	if _, err := a.Answer(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Answer(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if got := srv.BudgetSpent("alice"); got != 3 {
		t.Fatalf("alice spent %d, want 3", got)
	}
	if got := srv.BudgetSpent("bob"); got != 0 {
		t.Fatalf("bob spent %d, want 0 (all cached by alice's batch)", got)
	}
	if got := srv.CacheLen(); got != 3 {
		t.Fatalf("cache holds %d keys, want 3", got)
	}
}
