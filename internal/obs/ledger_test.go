package obs

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job-1.jsonl")
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Seq: 1, T: time.Now().UTC(), Kind: KindJob, Phase: "submitted"},
		{Seq: 2, T: time.Now().UTC(), Kind: KindPhase, Step: 1, Phase: "model", DurNS: 12345},
		{Seq: 3, T: time.Now().UTC(), Kind: KindDecision, Step: 5, Strategy: "diffusion", Dynamic: true, Correct: true, Predicted: 1.5, Actual: 2.5, AltActual: 3},
	}
	for _, e := range want {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := l.Append(Event{}); err == nil {
		t.Fatal("append after close succeeded")
	}

	got, skipped, err := ReadLedgerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped %d lines on a clean ledger", skipped)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d events, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.Kind != w.Kind || g.Phase != w.Phase || g.Step != w.Step ||
			g.DurNS != w.DurNS || g.Strategy != w.Strategy || g.Dynamic != w.Dynamic ||
			g.Correct != w.Correct || g.Predicted != w.Predicted || g.AltActual != w.AltActual {
			t.Fatalf("event %d: got %+v, want %+v", i, g, w)
		}
		if !g.T.Equal(w.T) {
			t.Fatalf("event %d time %v != %v", i, g.T, w.T)
		}
	}
}

// tornLedger writes n good events then truncates the file mid-way through
// the final line, as a crash during an append would.
func tornLedger(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := l.Append(Event{Seq: int64(i), Kind: KindStep, Step: i, DurNS: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLedgerTornFinalLineRecovery(t *testing.T) {
	path := tornLedger(t, 5)
	got, skipped, err := ReadLedgerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1 (the torn final line)", skipped)
	}
	if len(got) != 4 {
		t.Fatalf("recovered %d events, want 4", len(got))
	}
	for i, e := range got {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
}

func TestLedgerReopenAfterTearKeepsAppendsParseable(t *testing.T) {
	path := tornLedger(t, 5)
	// A daemon restart reopens the ledger and appends more events. The
	// reopen cuts the torn frame, so the append lands right after the
	// intact prefix and nothing is left to skip.
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Event{Seq: 6, Kind: KindStep, Step: 6, DurNS: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := ReadLedgerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped = %d, want 0 (the reopen cut the torn frame)", skipped)
	}
	if len(got) != 5 || got[4].Seq != 6 {
		t.Fatalf("recovered %d events (last %+v), want 5 ending in seq 6", len(got), got[len(got)-1])
	}
}

// TestLedgerFlippedByteStopsReadAtThatFrame: a corrupt frame in the
// middle of a ledger ends the trusted prefix; the intact frames after it
// are counted as skipped, not returned.
func TestLedgerFlippedByteStopsReadAtThatFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flipped.jsonl")
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := l.Append(Event{Seq: int64(i), Kind: KindStep, Step: i, DurNS: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	third := len(lines[0]) + len(lines[1]) + len(lines[2])/2
	data[third] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := ReadLedgerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Seq != 2 || skipped != 3 {
		t.Fatalf("read %d events (%d skipped), want 2 ending in seq 2 and 3 skipped", len(got), skipped)
	}
}

func TestTracerLedgerIntegration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(Options{Buffer: 2, Ledger: l}) // tiny ring: ledger must still get everything
	for i := 1; i <= 10; i++ {
		tr.EmitPhase(i, "model", time.Millisecond)
	}
	if err := tr.LedgerErr(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := ReadLedgerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(got) != 10 {
		t.Fatalf("ledger has %d events (%d skipped), want all 10", len(got), skipped)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 10 {
		t.Fatalf("ledger has %d lines, want 10", n)
	}
}

// TestConcurrentEmittersWriteLedgerInSeqOrder: eight goroutines emit at
// once; the ledger must hold every event exactly once with Seq strictly
// increasing — the order a reader replays it in.
func TestConcurrentEmittersWriteLedgerInSeqOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(Options{Buffer: 16, Ledger: l})
	const emitters, each = 8, 250
	var wg sync.WaitGroup
	wg.Add(emitters)
	for g := 0; g < emitters; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Emit(Event{Kind: KindNestStep, Step: i, NestID: g, DurNS: 1})
			}
		}(g)
	}
	wg.Wait()
	if err := tr.LedgerErr(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := ReadLedgerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(got) != emitters*each {
		t.Fatalf("ledger has %d events (%d skipped), want %d", len(got), skipped, emitters*each)
	}
	for i, e := range got {
		if e.Seq != int64(i+1) {
			t.Fatalf("ledger line %d carries seq %d: appended out of sequence", i+1, e.Seq)
		}
	}
}
