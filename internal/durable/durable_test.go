package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// TestWriteFileAtomicReplacesByRename: the new bytes go to a temp file
// that is renamed over the target, so the old file is never written in
// place (a handle opened before the write still reads the old bytes), no
// temp file is left behind, and a failed rename leaves nothing behind
// either.
func TestWriteFileAtomicReplacesByRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	if err := WriteFileAtomic(path, []byte("old contents"), 0o600); err != nil {
		t.Fatal(err)
	}
	old, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := WriteFileAtomic(path, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("file holds %q after the write, want %q", got, "new")
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v (%v), want 0644", st.Mode().Perm(), err)
	}
	buf := make([]byte, 64)
	n, _ := old.ReadAt(buf, 0)
	if string(buf[:n]) != "old contents" {
		t.Fatalf("old file read %q through its handle: written in place", buf[:n])
	}
	assertOnly(t, dir, "state.ckpt")

	// A rename that fails (the target is a non-empty directory) removes
	// its temp file and leaves the target alone.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(blocked, []byte("x"), 0o644); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	assertOnly(t, dir, "blocked", "state.ckpt")
}

func assertOnly(t *testing.T, dir string, names ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if !reflect.DeepEqual(got, names) {
		t.Fatalf("dir holds %v, want %v", got, names)
	}
}

func TestAppendFileSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain")
	if err := AppendFileSync(path, []byte("x")); err == nil {
		t.Fatal("append created a missing file")
	}
	if err := os.WriteFile(path, []byte("base"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"+d1", "+d2"} {
		if err := AppendFileSync(path, []byte(b)); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := os.ReadFile(path); string(got) != "base+d1+d2" {
		t.Fatalf("file = %q", got)
	}
}

type rec struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

// TestLogRoundTripCompactAndStaleTemp: appends and a compaction read back
// in order, a compaction temp left by a crash is cleared at open, and a
// closed log refuses appends.
func TestLogRoundTripCompactAndStaleTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, got, bad, err := Open[rec](path)
	if err != nil || len(got) != 0 || bad != 0 {
		t.Fatalf("fresh log: %v records, %d bad, %v", got, bad, err)
	}
	want := []rec{{1, "a"}, {2, "line\nbreak"}, {3, ""}}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(want[1:]); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{N: 4}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := l.Append(rec{N: 5}); err == nil {
		t.Fatal("append after close succeeded")
	}

	stale := path + ".tmp-42"
	if err := os.WriteFile(stale, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, got, bad, err = Open[rec](path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if wantAll := []rec{{2, "line\nbreak"}, {3, ""}, {4, ""}}; bad != 0 || !reflect.DeepEqual(got, wantAll) {
		t.Fatalf("reopened log: %+v (%d bad), want %+v", got, bad, wantAll)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale compaction temp survived open: %v", err)
	}
}

// TestLogFrameWithoutNewlineIsTorn: a frame whose JSON is whole but whose
// newline was cut is torn; open cuts it so the next append starts a line.
func TestLogFrameWithoutNewlineIsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _, err := Open[rec](path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(rec{N: 1})
	l.Append(rec{N: 2})
	l.Close()
	data, _ := os.ReadFile(path)
	first := bytes.IndexByte(data, '\n') + 1
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	l, got, bad, err := Open[rec](path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || bad != 1 {
		t.Fatalf("got %+v with %d bad, want 1 record and 1 bad", got, bad)
	}
	if st, _ := os.Stat(path); st.Size() != int64(first) {
		t.Fatalf("file is %d bytes, want the %d-byte prefix", st.Size(), first)
	}
	l.Append(rec{N: 3})
	l.Close()
	f, _ := os.Open(path)
	defer f.Close()
	got, bad, err = Read[rec](f)
	if err != nil || bad != 0 || !reflect.DeepEqual(got, []rec{{N: 1}, {N: 3}}) {
		t.Fatalf("after repair: %+v, %d bad, %v", got, bad, err)
	}
}

func TestNilLogDiscards(t *testing.T) {
	var l *Log[rec]
	if l.Append(rec{}) != nil || l.Sync() != nil || l.Compact(nil) != nil || l.Close() != nil || l.Path() != "" {
		t.Fatal("nil log is not a no-op")
	}
}

// TestLogCompactConcurrentWithAppends: appends racing a compaction land
// whole in the old file or after the swap, never torn into the new one,
// and every append that returns after the last compaction survives it.
func TestLogCompactConcurrentWithAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _, err := Open[rec](path)
	if err != nil {
		t.Fatal(err)
	}
	const appenders, each = 4, 50
	var wg sync.WaitGroup
	wg.Add(appenders)
	for g := 0; g < appenders; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append(rec{N: g*each + i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 10; i++ {
		if err := l.Compact([]rec{{N: -i}}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	l.Close()
	l, got, bad, err := Open[rec](path)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 || len(got) == 0 || got[0] != (rec{N: -9}) {
		t.Fatalf("after racing compactions: %d records starting %+v, %d bad", len(got), got[:min(len(got), 1)], bad)
	}
	if err := l.Compact([]rec{{N: -100}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{N: -200}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, got, bad, err = Open[rec](path)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 || !reflect.DeepEqual(got, []rec{{N: -100}, {N: -200}}) {
		t.Fatalf("after the last compaction: %+v, %d bad", got, bad)
	}
}
