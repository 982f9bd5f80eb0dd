package durable

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDurableLog first opens data itself as a log file some earlier
// process left: open must keep exactly the prefix Read trusts. It then
// writes a batch of records (the lines of data), damages the file with a
// truncation (mask 0) or one XORed byte, and reopens it. The reader must
// return exactly the records whose frames end before the damage, open
// must cut the file to those frames' bytes, appends after the reopen must
// read back after them, and a second reopen must change nothing.
func FuzzDurableLog(f *testing.F) {
	f.Add([]byte("a\nbb\nccc"), uint16(9), uint16(0), byte(0))
	f.Add([]byte("a\nbb\nccc"), uint16(20), uint16(20), byte(0x20))
	f.Add([]byte(""), uint16(0), uint16(0), byte(1))
	f.Fuzz(func(t *testing.T, data []byte, cut, at uint16, mask byte) {
		raw := filepath.Join(t.TempDir(), "raw")
		if err := os.WriteFile(raw, data, 0o644); err != nil {
			t.Fatal(err)
		}
		trusted, _, err := Read[json.RawMessage](bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		l0, got0, _, err := Open[json.RawMessage](raw)
		if err != nil {
			t.Fatal(err)
		}
		l0.Close()
		kept, _ := os.ReadFile(raw)
		again, bad, _ := Read[json.RawMessage](bytes.NewReader(kept))
		if !bytes.HasPrefix(data, kept) || bad != 0 || len(got0) != len(trusted) || len(again) != len(trusted) {
			t.Fatalf("open of a raw file kept %d of %d bytes, %d records (%d on reread, %d bad), Read trusts %d",
				len(kept), len(data), len(got0), len(again), bad, len(trusted))
		}

		recs := bytes.Split(data, []byte{'\n'})
		if len(recs) > 64 {
			recs = recs[:64]
		}
		path := filepath.Join(t.TempDir(), "log")
		l, _, _, err := Open[[]byte](path)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var ends []int // frame i is file[ends[i-1]:ends[i]]
		for i, b := range file {
			if b == '\n' {
				ends = append(ends, i+1)
			}
		}
		if len(ends) != len(recs) {
			t.Fatalf("%d records wrote %d lines", len(recs), len(ends))
		}

		// damage is the first byte the damage touches; every frame that
		// ends at or before it is intact.
		damage := len(file)
		if mask == 0 {
			damage = int(cut) % (len(file) + 1)
			file = file[:damage]
		} else if len(file) > 0 {
			damage = int(at) % len(file)
			file[damage] ^= mask
		}
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		intact, prefix := 0, 0
		for intact < len(ends) && ends[intact] <= damage {
			prefix = ends[intact]
			intact++
		}

		got, _, err := Read[[]byte](bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		assertRecords(t, "read", got, recs[:intact])

		l, got, _, err = Open[[]byte](path)
		if err != nil {
			t.Fatal(err)
		}
		assertRecords(t, "open", got, recs[:intact])
		if cutFile, _ := os.ReadFile(path); !bytes.Equal(cutFile, file[:prefix]) {
			t.Fatalf("open left %d bytes, want the %d-byte intact prefix", len(cutFile), prefix)
		}
		extra := [][]byte{[]byte("after"), data}
		for _, r := range extra {
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		want := append(append([][]byte{}, recs[:intact]...), extra...)
		before, _ := os.ReadFile(path)
		l, got, bad, err = Open[[]byte](path)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		assertRecords(t, "reopen", got, want)
		if after, _ := os.ReadFile(path); bad != 0 || !bytes.Equal(after, before) {
			t.Fatalf("second reopen cut %d frames / changed the file", bad)
		}
	})
}

func assertRecords(t *testing.T, stage string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", stage, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: record %d = %q, want %q", stage, i, got[i], want[i])
		}
	}
}
