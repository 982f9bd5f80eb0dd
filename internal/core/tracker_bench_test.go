package core

import (
	"testing"

	"nestdiff/internal/geom"
	"nestdiff/internal/scenario"
)

// BenchmarkTrackerApply is one Tracker.Apply of the dynamic strategy on a
// 1 024-core torus, over scenario.Generate's seeded churn: both candidates
// built and priced at every adaptation point. A fresh tracker starts each
// pass over the sets, so the figure averages the sequence's Applies.
func BenchmarkTrackerApply(b *testing.B) {
	g := geom.NewGrid(geom.NearSquareFactors(1024))
	net, model, oracle := testEnv(b, g)
	cfg := scenario.DefaultSyntheticConfig()
	cfg.Seed = 2607
	sets, err := scenario.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var tr *Tracker
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(sets)
		if k == 0 {
			if tr, err = NewTracker(g, net, model, oracle, Dynamic, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := tr.Apply(sets[k]); err != nil {
			b.Fatal(err)
		}
	}
}
