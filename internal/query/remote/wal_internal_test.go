package remote

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// shortFile wraps the WAL's file and, while armed, writes only the first
// half of a line before failing — the fragment a crash or a full disk
// leaves behind. failTruncate also makes the undo fail.
type shortFile struct {
	*os.File
	armed, failTruncate bool
}

func (f *shortFile) Write(p []byte) (int, error) {
	if !f.armed {
		return f.File.Write(p)
	}
	n, _ := f.File.Write(p[:len(p)/2])
	return n, errors.New("injected short write")
}

func (f *shortFile) Truncate(size int64) error {
	if f.failTruncate {
		return errors.New("injected truncate failure")
	}
	return f.File.Truncate(size)
}

func openTestWAL(t *testing.T) (*wal, *shortFile, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ledger.wal")
	w, _, err := openWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	sf := &shortFile{File: w.f.(*os.File)}
	w.f = sf
	t.Cleanup(func() { w.Close() })
	return w, sf, path
}

func entry(seq int64, cum int) LedgerEntry {
	return LedgerEntry{Seq: seq, Analyst: "a", Op: "spend", Backend: "exact", QueryHash: "h", Cost: 1, Cumulative: cum}
}

// TestWALFailedAppendTruncates: a partial write fails the append and is
// cut off again, so the next append lands on a line boundary and every
// acknowledged entry replays.
func TestWALFailedAppendTruncates(t *testing.T) {
	w, sf, path := openTestWAL(t)
	if err := w.append(entry(1, 1)); err != nil {
		t.Fatal(err)
	}
	sf.armed = true
	if err := w.append(entry(2, 2)); err == nil {
		t.Fatal("short write did not fail the append")
	}
	sf.armed = false
	if err := w.append(entry(2, 2)); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].Cumulative != 2 {
		t.Fatalf("replayed %+v, want both acknowledged entries", entries)
	}
	if _, err := ReplayLedger(entries); err != nil {
		t.Fatal(err)
	}
}

// TestWALUnrecoverableAppendFailsClosed: when the fragment cannot be cut
// off, every later append fails rather than merging with it.
func TestWALUnrecoverableAppendFailsClosed(t *testing.T) {
	w, sf, _ := openTestWAL(t)
	sf.armed, sf.failTruncate = true, true
	if err := w.append(entry(1, 1)); err == nil {
		t.Fatal("short write did not fail the append")
	}
	sf.armed, sf.failTruncate = false, false
	if err := w.append(entry(1, 1)); err == nil {
		t.Fatal("append after an unrecoverable failure succeeded")
	}
}

// FuzzReadWAL feeds arbitrary bytes to the WAL parser. It must never
// panic; whatever it accepts has an intact prefix that parses to the
// same entries, and a complete line appended after that prefix — what
// openWAL's truncation guarantees the next append sees — is always read
// back.
func FuzzReadWAL(f *testing.F) {
	line := `{"seq":1,"analyst":"a","op":"spend","backend":"exact","query_hash":"h","cost":1,"cumulative":1}`
	f.Add([]byte(line + "\n"))
	f.Add([]byte(line + "\n" + line[:20]))
	f.Add([]byte(line))
	f.Add([]byte(line + "\nnot json\n"))
	f.Add([]byte("not json\n" + line + "\n"))
	f.Add([]byte("\n\n"))
	f.Add([]byte{})
	next := []byte(`{"seq":99,"analyst":"z","op":"spend","backend":"exact","query_hash":"n","cost":1,"cumulative":1}` + "\n")
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, size, err := parseWAL(bytes.NewReader(data))
		if err != nil {
			return
		}
		if size < 0 || size > int64(len(data)) {
			t.Fatalf("intact prefix %d outside [0, %d]", size, len(data))
		}
		prefix := data[:size]
		again, size2, err := parseWAL(bytes.NewReader(prefix))
		if err != nil || size2 != size || len(again) != len(entries) {
			t.Fatalf("intact prefix re-parses to %d entries, size %d, err %v; want %d, %d", len(again), size2, err, len(entries), size)
		}
		grown, _, err := parseWAL(bytes.NewReader(append(append([]byte(nil), prefix...), next...)))
		if err != nil || len(grown) != len(entries)+1 {
			t.Fatalf("entry appended after the intact prefix lost: %d entries, err %v; want %d", len(grown), err, len(entries)+1)
		}
	})
}
