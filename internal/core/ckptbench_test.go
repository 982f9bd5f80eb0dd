package core

import (
	"bytes"
	"testing"

	"nestdiff/internal/geom"
)

// benchCkptPipeline is the multi-nest checkpoint workload: the scripted
// two-storm scenario run until both nests exist, the same state every
// bench uses so the encode numbers are comparable.
func benchCkptPipeline(b *testing.B) *Pipeline {
	b.Helper()
	p := checkpointPipeline(b, geom.NewGrid(8, 6), Diffusion, false)
	if err := p.Run(60); err != nil {
		b.Fatal(err)
	}
	if len(p.Nests()) < 2 {
		b.Fatalf("scenario spawned %d nests, want >= 2", len(p.Nests()))
	}
	return p
}

// BenchmarkCheckpointEncodeFull measures a v2 full base: binary field
// records encoded in parallel into the writer's pooled arenas.
func BenchmarkCheckpointEncodeFull(b *testing.B) {
	p := benchCkptPipeline(b)
	cw := NewCheckpointWriter(CheckpointWriterOptions{MaxDeltas: -1})
	var n int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, _, err := cw.Encode(p)
		if err != nil {
			b.Fatal(err)
		}
		n = len(blob)
	}
	b.ReportMetric(float64(n), "ckpt-bytes")
}

// BenchmarkCheckpointEncodeDelta measures the steady-state auto-checkpoint
// cut: the pipeline steps once between cuts, outside the timer, and each
// cut emits a thin replay delta of the multi-nest workload. The timed cuts
// stay inside the window of steps 61 to 110, where both storms live: on
// reaching the window's end the pipeline is restored from its step-60
// base and the writer re-bases, also outside the timer.
func BenchmarkCheckpointEncodeDelta(b *testing.B) {
	const windowEnd = 110
	p := benchCkptPipeline(b)
	net, model, oracle := testEnv(b, geom.NewGrid(8, 6))
	cw := NewCheckpointWriter(CheckpointWriterOptions{MaxDeltas: 1 << 30})
	blob, _, err := cw.Encode(p) // the chain's full base
	if err != nil {
		b.Fatal(err)
	}
	base := append([]byte(nil), blob...)
	var total int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if p.StepCount() >= windowEnd {
			if p, err = RestorePipeline(bytes.NewReader(base), net, model, oracle); err != nil {
				b.Fatal(err)
			}
			cw.Invalidate()
			if _, _, err := cw.Encode(p); err != nil {
				b.Fatal(err)
			}
		}
		if err := p.Run(1); err != nil {
			b.Fatal(err)
		}
		if n := len(p.Nests()); n < 2 {
			b.Fatalf("step %d has %d nests, want >= 2 in the timed window", p.StepCount(), n)
		}
		b.StartTimer()
		blob, full, err := cw.Encode(p)
		if err != nil {
			b.Fatal(err)
		}
		if full {
			b.Fatal("unexpected re-base during the delta benchmark")
		}
		total += len(blob)
	}
	b.ReportMetric(float64(total)/float64(b.N), "ckpt-bytes")
}

// BenchmarkFieldCRC measures the delta cut's inner loop: the CRC-32C of
// one field's little-endian encoding, taken over the byte view of its
// samples.
func BenchmarkFieldCRC(b *testing.B) {
	data := randomField(192, 162, 1).Data
	b.SetBytes(int64(8 * len(data)))
	for i := 0; i < b.N; i++ {
		crcSink = fieldCRC(data)
	}
}

var crcSink uint32
