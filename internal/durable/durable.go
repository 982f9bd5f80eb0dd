// Package durable owns how a file survives a crash. Every file nestdiff
// must find intact after a kill -9 is written through it:
//
//   - WriteFileAtomic replaces a whole file: temp file, fsync, rename,
//     directory fsync. A crash leaves either the old file or the new one.
//   - AppendFileSync appends to an existing file and fsyncs it.
//   - Log is an append-only log of CRC-framed JSON records with atomic
//     compaction: the fleet's placement WAL and the obs trace ledger.
//
// A log frame is one line:
//
//	{"crc":<CRC-32C of the rec JSON bytes>,"rec":<rec JSON>}\n
//
// One repair rule covers every log. A reader trusts only the prefix of
// frames that are whole, checksum and decode: it stops at the first bad
// frame, because a later record may describe state built on the lost one.
// Open truncates the file back to that prefix, so appends after a crash
// never land behind garbage.
package durable

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteFileAtomic writes data to path so that a crash at any instant
// leaves either the previous file or the complete new one, never a torn
// mix: the bytes go to a temporary file <base>.tmp-* in the same
// directory, which is fsynced, renamed over path, and the directory entry
// is fsynced too.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: atomic write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("durable: atomic write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("durable: atomic write %s: fsync: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("durable: atomic write %s: %w", path, err)
	}
	if err := os.Chmod(tmpName, perm); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("durable: atomic write %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("durable: atomic write %s: %w", path, err)
	}
	// Persist the rename itself; without the directory fsync a crash can
	// roll the directory entry back even though the data blocks survived.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// AppendFileSync appends b to the existing file at path and fsyncs it
// before closing: open O_APPEND, write, fsync, close.
func AppendFileSync(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Log is an append-only log of T records, one CRC-checked frame per
// record. All methods are safe for concurrent use and on a nil *Log, which
// is a log that discards everything.
type Log[T any] struct {
	mu   sync.Mutex
	f    *os.File // nil once closed
	path string
}

// Open opens (creating if needed) the log at path. It clears stale
// compaction temps, reads the intact prefix, truncates the file back to
// it, and returns the prefix's records plus the number of frames cut.
func Open[T any](path string) (*Log[T], []T, int, error) {
	// A WriteFileAtomic temp beside path is a compaction that died before
	// its rename; the log itself is untouched, so the temp is garbage.
	stale, _ := filepath.Glob(path + ".tmp-*")
	for _, tmp := range stale {
		os.Remove(tmp)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("durable: open %s: %w", path, err)
	}
	recs, good, bad, err := read[T](f)
	if err == nil && bad > 0 {
		err = f.Truncate(good)
	}
	if err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("durable: open %s: %w", path, err)
	}
	return &Log[T]{f: f, path: path}, recs, bad, nil
}

// Path returns the log's file path.
func (l *Log[T]) Path() string {
	if l == nil {
		return ""
	}
	return l.path
}

// Append writes one record's frame with a single write. It is durable
// only after a Sync.
func (l *Log[T]) Append(rec T) error {
	if l == nil {
		return nil
	}
	frame, err := appendFrame(nil, rec)
	if err != nil {
		return fmt.Errorf("durable: append %s: %w", l.path, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("durable: append %s: log closed", l.path)
	}
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("durable: append %s: %w", l.path, err)
	}
	return nil
}

// Sync flushes every appended frame to stable storage.
func (l *Log[T]) Sync() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	return l.f.Sync()
}

// Compact atomically replaces the log with recs (WriteFileAtomic), then
// swaps the append handle. A crash before the rename leaves the old log
// (Open clears the stale temp); a crash after it leaves the new one.
// Appends are held out until the handle is swapped, so none can land in
// the replaced file.
func (l *Log[T]) Compact(recs []T) error {
	if l == nil {
		return nil
	}
	var buf []byte
	for _, rec := range recs {
		var err error
		if buf, err = appendFrame(buf, rec); err != nil {
			return fmt.Errorf("durable: compact %s: %w", l.path, err)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("durable: compact %s: log closed", l.path)
	}
	if err := WriteFileAtomic(l.path, buf, 0o644); err != nil {
		return err
	}
	nf, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The disk holds the compacted log but the old handle points at
		// the replaced inode; surface the error so the caller counts it.
		return fmt.Errorf("durable: reopen compacted %s: %w", l.path, err)
	}
	l.f.Close()
	l.f = nf
	return nil
}

// Close syncs and closes the log. Close is idempotent; Append after Close
// fails.
func (l *Log[T]) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Read decodes the intact prefix of a log stream. It returns the prefix's
// records and the number of frames from the first bad one to the end
// (0 for a clean log). Only I/O errors are returned.
func Read[T any](r io.Reader) ([]T, int, error) {
	recs, _, bad, err := read[T](r)
	return recs, bad, err
}

// read is Read that also returns the byte length of the intact prefix.
func read[T any](r io.Reader) (recs []T, good int64, bad int, err error) {
	br := bufio.NewReader(r)
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 && bad == 0 {
			if rec, ok := decodeFrame[T](line); ok {
				recs = append(recs, rec)
				good += int64(len(line))
			} else {
				bad = 1
			}
		} else if len(line) > 0 {
			bad++
		}
		if errors.Is(rerr, io.EOF) {
			return recs, good, bad, nil
		}
		if rerr != nil {
			return recs, good, bad, rerr
		}
	}
}

const (
	crcKey = `{"crc":`
	recKey = `,"rec":`
	tail   = "}\n"
)

// appendFrame appends rec's frame to dst.
func appendFrame(dst []byte, rec any) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return dst, err
	}
	dst = append(dst, crcKey...)
	dst = strconv.AppendUint(dst, uint64(crc32.Checksum(payload, castagnoli)), 10)
	dst = append(dst, recKey...)
	dst = append(dst, payload...)
	return append(dst, tail...), nil
}

// decodeFrame parses one newline-terminated frame exactly as appendFrame
// writes it. A frame without its newline is torn, even if its JSON is
// whole: the next append would run into it.
func decodeFrame[T any](line []byte) (rec T, ok bool) {
	body, ok1 := bytes.CutPrefix(line, []byte(crcKey))
	digits, payload, ok2 := bytes.Cut(body, []byte(recKey))
	payload, ok3 := bytes.CutSuffix(payload, []byte(tail))
	if !ok1 || !ok2 || !ok3 {
		return rec, false
	}
	crc, err := strconv.ParseUint(string(digits), 10, 32)
	if err != nil || uint32(crc) != crc32.Checksum(payload, castagnoli) {
		return rec, false
	}
	return rec, json.Unmarshal(payload, &rec) == nil
}
