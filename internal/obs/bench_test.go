package obs

import (
	"testing"
	"time"
)

// eventSite mimics an instrumented hot-path site exactly as core and
// service write it: one nil check, and only behind it the time.Now pair
// and the Emit. The disabled sub-benchmark is the cost every production
// step pays when tracing is off (nestbench row obs.emit_disabled_ns).
func eventSite(tr *Tracer, step int) {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	// (traced work happens here)
	if tr != nil {
		tr.EmitPhase(step, "model", time.Since(t0))
	}
}

func BenchmarkTracerOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		var tr *Tracer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eventSite(tr, i)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		tr := New(Options{Buffer: 4096})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eventSite(tr, i)
		}
	})
	b.Run("enabled-ledger", func(b *testing.B) {
		l, err := OpenLedger(b.TempDir() + "/bench.jsonl")
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		tr := New(Options{Buffer: 4096, Ledger: l})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eventSite(tr, i)
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveNS(int64(i%1000) * 1000)
	}
}
