package experiments

import (
	"context"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// goldenPath holds the committed rendering of every table at seed 1 in
// quick mode: the stdout of `repro -quick -seed 1` with each
// `[ID completed in …]` wall-time line masked. EXPERIMENTS.md gives the
// command that regenerates it.
const goldenPath = "testdata/quick-seed1.golden"

var goldenMarker = regexp.MustCompile(`^  \[([A-Z0-9]+) completed in …\]$`)

// goldenTables splits the golden file into each table's rendering, keyed
// by experiment id.
func goldenTables(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	var cur strings.Builder
	lines := strings.SplitAfter(string(data), "\n")
	for i := 0; i < len(lines); i++ {
		if m := goldenMarker.FindStringSubmatch(strings.TrimSuffix(lines[i], "\n")); m != nil {
			out[m[1]] = cur.String()
			cur.Reset()
			i++ // the blank line after the marker
			continue
		}
		cur.WriteString(lines[i])
	}
	return out
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return strconv.Quote(ls[i])
		}
		return "<end of table>"
	}
	for i := 0; i < len(g) || i < len(w); i++ {
		if gl, wl := line(g, i), line(w, i); gl != wl {
			return fmt.Sprintf("first difference at line %d:\n  got:  %s\n  want: %s", i+1, gl, wl)
		}
	}
	return "no difference"
}

// TestAllRunnersProduceTables runs every registered experiment in quick
// mode at seed 1, checks the tables are well formed, and compares each
// rendering with the golden file byte for byte.
func TestAllRunnersProduceTables(t *testing.T) {
	golden := goldenTables(t)
	if len(golden) != len(All()) {
		t.Errorf("golden file holds %d tables, registry has %d runners", len(golden), len(All()))
	}
	for _, r := range All() {
		r := r
		want, ok := golden[r.ID]
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			tab, err := r.Run(context.Background(), 1, true)
			if err != nil {
				t.Fatal(err)
			}
			if tab.ID != r.ID {
				t.Errorf("table id %q != runner id %q", tab.ID, r.ID)
			}
			if len(tab.Header) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("empty table: %+v", tab)
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Errorf("row %d width %d != header width %d", i, len(row), len(tab.Header))
				}
			}
			if !ok {
				t.Fatalf("%s has no table in %s", r.ID, goldenPath)
			}
			if got := tab.String(); got != want {
				t.Errorf("%s differs from %s; %s", r.ID, goldenPath, firstDiff(got, want))
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E08"); !ok {
		t.Error("E08 should exist")
	}
	if _, ok := ByID("e08"); !ok {
		t.Error("lookup should be case-insensitive")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("E99 should not exist")
	}
}

// TestE02CrossoverShape verifies the fundamental-law shape: reconstruction
// succeeds at small noise and fails at noise Θ(n).
func TestE02CrossoverShape(t *testing.T) {
	tab, err := E02LPReconstruction(context.Background(), 7, true)
	if err != nil {
		t.Fatal(err)
	}
	// First row per n is c=0 (exact): must be "yes"; last row is alpha≈n/3:
	// must be "no".
	sawYes, sawNo := false, false
	for _, row := range tab.Rows {
		switch row[3] {
		case "yes":
			sawYes = true
		case "no":
			sawNo = true
		}
	}
	if !sawYes || !sawNo {
		t.Errorf("E02 should show both regimes:\n%s", tab)
	}
	if row := tab.Rows[0]; row[3] != "yes" {
		t.Errorf("exact answers must reconstruct: %v", row)
	}
}

// TestE09CrossoverShape verifies the DP defense: small epsilon prevents
// PSO, exact counts do not.
func TestE09CrossoverShape(t *testing.T) {
	tab, err := E09DPPSOSecurity(context.Background(), 7, true)
	if err != nil {
		t.Fatal(err)
	}
	first := tab.Rows[0]              // eps = 0.05
	last := tab.Rows[len(tab.Rows)-1] // exact
	if first[3] != "yes" {
		t.Errorf("eps=0.05 should prevent PSO: %v", first)
	}
	if last[3] != "no" {
		t.Errorf("exact counts should fail: %v", last)
	}
}

// TestE16Contradiction verifies the paper's §2.4.3 punchline appears in
// the measured table: the WP verdict for k-anonymity is contradicted and
// the DP verdict is consistent.
func TestE16Contradiction(t *testing.T) {
	tab, err := E16LegalVerdictTable(context.Background(), 7, true)
	if err != nil {
		t.Fatal(err)
	}
	var sawKAnonContradiction, sawDPConsistent bool
	for _, row := range tab.Rows {
		if row[0] == "k-anonymity" && row[3] == "no" {
			sawKAnonContradiction = true
		}
		if row[0] == "differential privacy" && row[3] == "yes" {
			sawDPConsistent = true
		}
	}
	if !sawKAnonContradiction {
		t.Errorf("k-anonymity row should contradict the WP:\n%s", tab)
	}
	if !sawDPConsistent {
		t.Errorf("differential privacy row should be consistent:\n%s", tab)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "X", Title: "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"a note"},
	}
	out := tab.String()
	for _, want := range []string{"X — demo", "long-header", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

// TestE19DefenseShape verifies the historical arc: swapping leaves every
// block solvable while DP noise makes most unsolvable.
func TestE19DefenseShape(t *testing.T) {
	tab, err := E19CensusDefenses(context.Background(), 7, true)
	if err != nil {
		t.Fatal(err)
	}
	var rawSolved, swapSolved, dpSolved string
	for _, row := range tab.Rows {
		switch {
		case row[0] == "none (raw tables)":
			rawSolved = row[1]
		case strings.HasPrefix(row[0], "swapping 30"):
			swapSolved = row[1]
		case strings.HasPrefix(row[0], "ε=0.5"):
			dpSolved = row[1]
		}
	}
	if rawSolved == "" || swapSolved == "" || dpSolved == "" {
		t.Fatalf("missing rows:\n%s", tab)
	}
	if rawSolved != swapSolved {
		t.Errorf("swapping should leave solvability intact: raw %s vs swap %s", rawSolved, swapSolved)
	}
	var solved, blocks int
	if _, err := fmt.Sscanf(dpSolved, "%d/%d", &solved, &blocks); err != nil {
		t.Fatal(err)
	}
	if solved*4 > blocks {
		t.Errorf("DP tables should be mostly unsolvable: %s", dpSolved)
	}
}

// TestTableWideRowRendering is a regression test for rows carrying more
// cells than the header: those cells used to render at width 0, collapsing
// the column alignment.
func TestTableWideRowRendering(t *testing.T) {
	tab := &Table{
		ID:     "X",
		Title:  "wide rows",
		Header: []string{"a", "b"},
	}
	tab.AddRow("1", "2", "wide-extra-cell", "tail")
	tab.AddRow("3", "4", "x", "yy")
	out := tab.String()
	if !strings.Contains(out, "wide-extra-cell") {
		t.Fatalf("extra cell missing:\n%s", out)
	}
	// The short extra cell must be padded to its column width so the row
	// tails align.
	lines := strings.Split(out, "\n")
	var tailCols []int
	for _, l := range lines {
		if i := strings.Index(l, "tail"); i >= 0 {
			tailCols = append(tailCols, i)
		}
		if i := strings.Index(l, "yy"); i >= 0 {
			tailCols = append(tailCols, i)
		}
	}
	if len(tailCols) != 2 || tailCols[0] != tailCols[1] {
		t.Errorf("row tails misaligned (columns %v):\n%s", tailCols, out)
	}
}

// TestRunInstrumented checks that metrics recorded while an experiment
// runs land in the table footer, and that oracle query counts are nonzero
// for an oracle-driven attack.
func TestRunInstrumented(t *testing.T) {
	r, ok := ByID("E01")
	if !ok {
		t.Fatal("E01 not registered")
	}
	tab, delta, err := r.RunInstrumented(context.Background(), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Counters["query.count"] == 0 {
		t.Errorf("expected nonzero oracle query count, got delta %+v", delta)
	}
	if tab.Metrics.Empty() {
		t.Error("table metrics footer should be populated")
	}
	if out := tab.String(); !strings.Contains(out, "metrics:") || !strings.Contains(out, "query.count") {
		t.Errorf("rendered table missing metrics footer:\n%s", out)
	}
}
