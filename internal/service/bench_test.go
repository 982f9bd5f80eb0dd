package service

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// BenchmarkSchedulerThroughput measures end-to-end job throughput — submit
// through terminal state — at several worker-pool sizes. Each op is one
// 20-step cells-scenario job on a 256-core torus; ReportMetric adds
// steps/sec so pool scaling is visible in simulation work, not just job
// bookkeeping. The live end-to-end figure is nestbench's serve-fleet
// ops_per_s; the first baseline is recorded in CHANGES.md, PR 1.
func BenchmarkSchedulerThroughput(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchScheduler(b, workers, smallJob(20))
		})
	}
	// The traced variant measures the full tracing cost a job opts into
	// (ring buffer + streaming histograms, no ledger); compare against
	// workers=1 for the tracer-on/off throughput delta (nestbench row
	// obs.trace_overhead_pct).
	b.Run("workers=1-traced", func(b *testing.B) {
		cfg := smallJob(20)
		cfg.Trace = true
		benchScheduler(b, 1, cfg)
	})
}

func benchScheduler(b *testing.B, workers int, cfg JobConfig) {
	s := NewScheduler(SchedulerConfig{Workers: workers, QueueDepth: b.N + 1})
	defer s.Shutdown(context.Background())
	b.ResetTimer()

	ids := make([]string, 0, b.N)
	for i := 0; i < b.N; i++ {
		snap, err := s.Submit(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	for _, id := range ids {
		for {
			snap, err := s.Get(id)
			if err != nil {
				b.Fatal(err)
			}
			if snap.State.Terminal() {
				if snap.State != StateDone {
					b.Fatalf("job %s finished %s (error %q)", id, snap.State, snap.Error)
				}
				break
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	b.StopTimer()

	steps := float64(s.Metrics().Value("nestserved_steps_executed_total"))
	b.ReportMetric(steps/b.Elapsed().Seconds(), "steps/sec")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
}
