package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"nestdiff/internal/core"
)

// The placement WAL makes the control plane's decisions durable: every
// placement, epoch bump, membership transition and terminal state is
// journaled as one CRC-checked JSON line before (or atomically with) the
// in-memory table mutating, and a restarted controller replays the log to
// reconstruct the exact placement table, membership view and epoch
// counters it had when it died — workers keep heartbeating into the new
// process with no re-registration storm, and no adoption fires for a job
// whose owner is alive.
//
// Line format (mirrors the internal/obs ledger and the service checkpoint
// envelope philosophy: every durable artifact is integrity-checked):
//
//	{"crc":<CRC-32C of the rec JSON bytes>,"rec":{...}}\n
//
// A torn or corrupt tail — the final write of a kill -9 — fails the CRC
// or the JSON parse; OpenWAL truncates the file back to the last good
// line, counts the repair, and appends from there. Records before the
// tear were fsynced and survive.

// walOp enumerates the journaled mutations.
const (
	walOpPlace = "place" // job placed on a worker (initial epoch)
	walOpAdopt = "adopt" // job re-homed after its owner died
	walOpMove  = "move"  // job migrated (rebalance, drain) or reconciled
	walOpEpoch = "epoch" // epoch allocated for an attempt (intent, pre-send)
	walOpState = "state" // job reached a terminal state
	// walOpCfg updates a placement's job config in place (a resize changed
	// cores). Deliberately NOT a re-place: replaying a place record resets
	// Epoch and floor, and a cfg change must never reopen an
	// already-allocated epoch for reuse.
	walOpCfg      = "cfg"
	walOpRegister = "register" // worker joined (or changed URL)
	walOpDead     = "dead"     // worker declared dead or deregistered
)

// walRecord is one journaled mutation; fields are op-dependent.
type walRecord struct {
	Op     string          `json:"op"`
	JobID  string          `json:"job,omitempty"`
	Worker string          `json:"worker,omitempty"`
	URL    string          `json:"url,omitempty"`
	Epoch  int64           `json:"epoch,omitempty"`
	State  string          `json:"state,omitempty"`
	Cfg    json.RawMessage `json:"cfg,omitempty"`
}

// walLine is the on-disk envelope of one record.
type walLine struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// wal is an append-only, CRC-per-line, fsync-per-append journal. Control
// mutations are rare (human/job-lifecycle rate, not step rate), so the
// durability of a sync on every append costs nothing that matters.
type wal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// openWAL opens (or creates) the journal at path, repairs any torn tail,
// and returns the decoded records plus the number of corrupt trailing
// lines truncated.
func openWAL(path string) (*wal, []walRecord, int64, error) {
	// A stale temp file (core.WriteFileAtomic's <base>.tmp-*) is a
	// compaction that died before its rename; the real WAL is untouched, so
	// the leftover is just garbage to clear.
	if stale, err := filepath.Glob(path + ".tmp-*"); err == nil {
		for _, tmp := range stale {
			os.Remove(tmp)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, 0, fmt.Errorf("fleet: open wal: %w", err)
	}
	records, goodBytes, truncated := replayWAL(data)
	if truncated > 0 {
		if err := os.Truncate(path, goodBytes); err != nil {
			return nil, nil, 0, fmt.Errorf("fleet: repair wal tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("fleet: open wal: %w", err)
	}
	return &wal{f: f, path: path}, records, truncated, nil
}

// replayWAL decodes records from raw journal bytes, stopping at the first
// line that fails to parse or checksum. It returns the good records, the
// byte length of the good prefix, and the number of bad lines skipped.
// Corruption anywhere poisons everything after it — a mid-file tear means
// the tail's records may describe state built on the lost line, so only
// the clean prefix is trusted.
func replayWAL(data []byte) (records []walRecord, goodBytes int64, truncated int64) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	offset := int64(0)
	for sc.Scan() {
		line := sc.Bytes()
		lineLen := int64(len(line)) + 1 // +1 for the newline Scan strips
		var env walLine
		if err := json.Unmarshal(line, &env); err != nil ||
			crc32.Checksum(env.Rec, walCRC) != env.CRC {
			truncated++
			// Count every remaining line as truncated, then stop.
			for sc.Scan() {
				truncated++
			}
			return records, offset, truncated
		}
		var rec walRecord
		if err := json.Unmarshal(env.Rec, &rec); err != nil {
			truncated++
			for sc.Scan() {
				truncated++
			}
			return records, offset, truncated
		}
		records = append(records, rec)
		offset += lineLen
	}
	return records, offset, truncated
}

// append journals one record durably: marshal, checksum, write, fsync.
func (w *wal) append(rec walRecord) error {
	if w == nil {
		return nil
	}
	line, err := encodeWALLine(rec)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(line); err != nil {
		return err
	}
	return w.f.Sync()
}

// encodeWALLine marshals one record into its CRC-enveloped on-disk line.
func encodeWALLine(rec walRecord) ([]byte, error) {
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(walLine{CRC: crc32.Checksum(recJSON, walCRC), Rec: recJSON})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// compact atomically replaces the journal with a snapshot of the given
// records (core.WriteFileAtomic: temp file, fsync, rename, directory
// fsync), then swaps the append handle. A crash before the rename leaves
// the old WAL intact (openWAL clears the stale temp); a crash after it
// leaves the compact WAL, which replays to the same state by construction.
// Appends are held out by w.mu for the duration, so no record can land
// between the snapshot and the swap.
func (w *wal) compact(records []walRecord) error {
	if w == nil {
		return nil
	}
	var buf bytes.Buffer
	for _, rec := range records {
		line, err := encodeWALLine(rec)
		if err != nil {
			return err
		}
		buf.Write(line)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := core.WriteFileAtomic(w.path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("fleet: compact wal: %w", err)
	}
	nf, err := os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The disk holds the compacted WAL but the old handle points at the
		// replaced inode; surface the error so the caller counts it.
		return fmt.Errorf("fleet: reopen compacted wal: %w", err)
	}
	w.f.Close()
	w.f = nf
	return nil
}

// close syncs and closes the journal.
func (w *wal) close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.f.Sync()
	return w.f.Close()
}
