package remote

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// wal is the ledger's write-ahead log: one JSON-encoded LedgerEntry per
// line, appended BEFORE the entry is applied to the in-memory ledger
// (write-ahead in the strict sense — if the disk write fails, the budget
// movement never happens and the request fails instead). On startup the
// server replays the file through ReplayLedger, so a restart resumes
// exactly the enforced budget state: spent epsilon stays spent.
//
// The answer cache is deliberately NOT persisted. After a restart a
// previously-answered query is fresh again and charges budget again —
// the conservative direction for a privacy ledger (an analyst can be
// over-charged across restarts, never under-charged), and the sticky
// backends still return byte-identical answers.
type wal struct {
	mu       sync.Mutex
	f        walFile
	size     int64 // bytes of complete lines on disk; a failed append truncates back here
	err      error // sticky: set when a failed append could not be undone
	syncEach bool
}

// walFile is the slice of *os.File the WAL writes through (tests inject
// short writes behind it).
type walFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// openWAL opens (creating if needed) the WAL at path for appending and
// returns it together with the entries already on disk, sorted by
// sequence number. The ledger assigns sequence numbers and appends under
// one lock, so a log it writes is already in Seq order; the sort keeps
// logs from older sharded servers loading, whose lines could land
// slightly out of global order (each analyst's lines were still in
// order, which is what ReplayLedger validates).
//
// A torn tail (see ReadWAL) is truncated away before the first append.
// Appending straight after the fragment would merge it with the next
// entry into one undecodable line, which the following restart would
// drop as its own torn tail — refunding a spend that really happened.
func openWAL(path string, syncEach bool) (*wal, []LedgerEntry, error) {
	entries, size, err := readWAL(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("remote: opening ledger wal: %w", err)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("remote: truncating ledger wal torn tail: %w", err)
	}
	return &wal{f: f, size: size, syncEach: syncEach}, entries, nil
}

// append durably records one entry. Called with the ledger lock held,
// before the in-memory append — a failure here must leave the ledger
// unmoved.
func (w *wal) append(e LedgerEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("remote: encoding ledger wal entry: %w", err)
	}
	line = append(line, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	err = w.write(line)
	if err == nil {
		w.size += int64(len(line))
		return nil
	}
	// The ledger will not move, so neither may the file: cut any partial
	// line off again. If that fails too, the next append would merge with
	// the fragment, so every later append fails instead (fail closed).
	if terr := w.f.Truncate(w.size); terr != nil {
		w.err = fmt.Errorf("remote: ledger wal unusable after failed append: %w", errors.Join(err, terr))
		return w.err
	}
	return err
}

func (w *wal) write(line []byte) error {
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("remote: appending ledger wal entry: %w", err)
	}
	if w.syncEach {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("remote: syncing ledger wal: %w", err)
		}
	}
	return nil
}

// Close syncs and closes the WAL file.
func (w *wal) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	f := w.f
	w.f = nil
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("remote: syncing ledger wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("remote: closing ledger wal: %w", err)
	}
	return nil
}

// ReadWAL loads a ledger write-ahead log: one JSON LedgerEntry per
// newline-terminated line, returned sorted by sequence number. A torn
// tail (the fragment of a crash mid-append: a final line without its
// newline, or an undecodable final line) is dropped — the entry it would
// have recorded never took effect in memory either, since the WAL append
// precedes the ledger append and writes the newline last. An undecodable
// line anywhere else is corruption and fails loudly — a privacy ledger
// with a hole in the middle must not silently replay to a smaller spend.
// Callers wanting the cross-check run ReplayLedger over the result, as
// NewServer does.
func ReadWAL(path string) ([]LedgerEntry, error) {
	entries, _, err := readWAL(path)
	return entries, err
}

// readWAL is ReadWAL that also returns the byte length of the intact
// prefix: everything up to the end of the last decodable complete line.
func readWAL(path string) ([]LedgerEntry, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, fmt.Errorf("remote: ledger wal: %w", err)
		}
		return nil, 0, fmt.Errorf("remote: reading ledger wal: %w", err)
	}
	defer f.Close()
	return parseWAL(f)
}

// parseWAL decodes a WAL stream (see ReadWAL) and returns the length of
// its intact prefix.
func parseWAL(r io.Reader) ([]LedgerEntry, int64, error) {
	var (
		entries    []LedgerEntry
		size, off  int64
		lineNo     int
		pendingErr error
	)
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, 0, fmt.Errorf("remote: reading ledger wal: %w", err)
		}
		if len(line) == 0 || line[len(line)-1] != '\n' {
			break // EOF; an unterminated fragment is a torn tail
		}
		lineNo++
		off += int64(len(line))
		line = line[:len(line)-1]
		if len(line) == 0 {
			if pendingErr == nil {
				size = off
			}
			continue
		}
		if pendingErr != nil {
			// The bad line was NOT the final one: corruption, not a torn tail.
			return nil, 0, pendingErr
		}
		var e LedgerEntry
		if err := json.Unmarshal(line, &e); err != nil {
			pendingErr = fmt.Errorf("remote: ledger wal line %d: undecodable entry: %w", lineNo, err)
			continue
		}
		entries = append(entries, e)
		size = off
	}
	// pendingErr still set here means the undecodable line was the last
	// one — a torn tail (a fragment that a later append merged with, if
	// the file was appended to without truncating it first); replay
	// proceeds without it.
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Seq < entries[j].Seq })
	return entries, size, nil
}
