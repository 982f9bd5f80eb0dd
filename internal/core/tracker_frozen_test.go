package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"nestdiff/internal/geom"
	"nestdiff/internal/scenario"
)

// TestTrackerStepsDigestFrozen pins every field of every StepMetrics a
// tracker records over a seeded 70-case churn run, per strategy and
// machine size. The digests were taken at the commit before the tracker
// measured each candidate's plans once instead of twice and before the
// plans came from the separable enumeration: same seed, same decisions.
func TestTrackerStepsDigestFrozen(t *testing.T) {
	want := map[string]string{
		"scratch.p256":    "3bf669ca1de51def",
		"diffusion.p256":  "6b095a4e6b4d94a2",
		"dynamic.p256":    "6b8f5e8cf188aacc",
		"scratch.p1024":   "ba080b30566760ef",
		"diffusion.p1024": "ca8ca06d8047a131",
		"dynamic.p1024":   "48afa4972c446b3e",
	}
	cfg := scenario.DefaultSyntheticConfig()
	cfg.Seed = 2607
	sets, err := scenario.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{256, 1024} {
		px, py := geom.NearSquareFactors(cores)
		for _, s := range []Strategy{Scratch, Diffusion, Dynamic} {
			name := fmt.Sprintf("%s.p%d", s, cores)
			t.Run(name, func(t *testing.T) {
				tr := runScenario(t, geom.NewGrid(px, py), s, sets)
				if got := stepsDigest(tr.Steps()); got != want[name] {
					t.Fatalf("steps digest %s = %s, frozen %s", name, got, want[name])
				}
			})
		}
	}
}

// stepsDigest is an FNV-64a over every StepMetrics field in declaration
// order, floats by bit pattern, CandidateTotals in strategy order behind a
// presence flag.
func stepsDigest(steps []StepMetrics) string {
	h := fnv.New64a()
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	flag := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	u(uint64(len(steps)))
	for _, sm := range steps {
		u(uint64(sm.Used))
		f(sm.RedistTime)
		f(sm.ExecTime)
		f(sm.PredictedRedistTime)
		f(sm.PredictedExecTime)
		m := sm.Redist
		f(m.Time)
		u(uint64(m.TotalBytes))
		u(uint64(m.RemoteBytes))
		u(uint64(m.LocalBytes))
		f(m.HopBytes)
		f(m.AvgHopBytes)
		f(m.OverlapPercent)
		u(uint64(m.Messages))
		u(uint64(m.MaxHops))
		flag(sm.DynamicCorrect)
		flag(sm.CandidateTotals != nil)
		if sm.CandidateTotals != nil {
			for _, s := range []Strategy{Scratch, Diffusion} {
				tot, ok := sm.CandidateTotals[s]
				flag(ok)
				f(tot)
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
