package core

import (
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
// cut: the pipeline steps between cuts (excluded from the timer) and each
// cut emits a thin replay delta. Run with a fixed -benchtime (e.g. 200x):
// every iteration advances the simulation one step.
func BenchmarkCheckpointEncodeDelta(b *testing.B) {
	p := benchCkptPipeline(b)
	cw := NewCheckpointWriter(CheckpointWriterOptions{MaxDeltas: 1 << 30})
	if _, _, err := cw.Encode(p); err != nil { // the chain's full base
		b.Fatal(err)
	}
	var total int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := p.Run(1); err != nil {
			b.Fatal(err)
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
