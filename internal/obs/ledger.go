package obs

import (
	"fmt"
	"io"
	"os"

	"nestdiff/internal/durable"
)

// Ledger is a traced job's append-only event log on disk: a durable.Log
// of Event records, one CRC-framed JSON line per event written with a
// single Write call. A crash tears at most the final frame; reopening the
// ledger truncates it, so appends after a restart read back cleanly.
type Ledger = durable.Log[Event]

// OpenLedger opens (creating if needed) the ledger at path, cutting any
// torn tail a previous crash left.
func OpenLedger(path string) (*Ledger, error) {
	l, _, _, err := durable.Open[Event](path)
	if err != nil {
		return nil, fmt.Errorf("obs: open ledger: %w", err)
	}
	return l, nil
}

// ReadLedger decodes a ledger stream up to its first torn or corrupt
// frame. skipped counts the frames from there to the end, which are never
// trusted: only I/O errors are returned.
func ReadLedger(r io.Reader) (events []Event, skipped int, err error) {
	events, skipped, err = durable.Read[Event](r)
	if err != nil {
		return events, skipped, fmt.Errorf("obs: read ledger: %w", err)
	}
	return events, skipped, nil
}

// ReadLedgerFile reads a ledger from disk via ReadLedger.
func ReadLedgerFile(path string) ([]Event, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("obs: open ledger: %w", err)
	}
	defer f.Close()
	return ReadLedger(f)
}
