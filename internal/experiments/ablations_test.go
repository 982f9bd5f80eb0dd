package experiments

import "testing"

func TestScalingStudyShape(t *testing.T) {
	rows, err := paper.Scaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.RedistImprovementPercent <= 0 {
			t.Errorf("%d cores: improvement %.1f%%", r.Cores, r.RedistImprovementPercent)
		}
		if r.MeanDiffusionHopBytes >= r.MeanScratchHopBytes {
			t.Errorf("%d cores: diffusion hop-bytes %.2f >= scratch %.2f",
				r.Cores, r.MeanDiffusionHopBytes, r.MeanScratchHopBytes)
		}
	}
	// §IV-B: the scratch method's routes lengthen with machine size.
	if rows[2].MeanScratchMaxHops <= rows[0].MeanScratchMaxHops {
		t.Errorf("scratch max hops did not grow with cores: %.1f (%d) vs %.1f (%d)",
			rows[0].MeanScratchMaxHops, rows[0].Cores, rows[2].MeanScratchMaxHops, rows[2].Cores)
	}
}

func TestInsertionPolicyAblation(t *testing.T) {
	res, err := paper.Insertion()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's closest-weight insertion exists to keep partitions
	// square-like; the first-free baseline must be measurably worse (or at
	// best equal) on both aspect ratio and execution time.
	if res.ClosestAspect > res.FirstFreeAspect*1.02 {
		t.Errorf("closest-weight aspect %.3f worse than first-free %.3f",
			res.ClosestAspect, res.FirstFreeAspect)
	}
	if res.ClosestExec > res.FirstFreeExec*1.02 {
		t.Errorf("closest-weight exec %.2f worse than first-free %.2f",
			res.ClosestExec, res.FirstFreeExec)
	}
}

func TestMappingAblation(t *testing.T) {
	results, err := paper.Mapping()
	if err != nil {
		t.Fatal(err)
	}
	folded, linear := results[0], results[1]
	// The folding-based mapping is what turns process-grid locality into
	// torus locality: without it, the diffusion strategy's traffic crosses
	// more links.
	if folded.MeanDiffusionHopBytes >= linear.MeanDiffusionHopBytes {
		t.Errorf("folded mapping hop-bytes %.2f not below linear %.2f",
			folded.MeanDiffusionHopBytes, linear.MeanDiffusionHopBytes)
	}
	if folded.DiffusionRedistTotal > linear.DiffusionRedistTotal*1.02 {
		t.Errorf("folded mapping redistribution %.3f worse than linear %.3f",
			folded.DiffusionRedistTotal, linear.DiffusionRedistTotal)
	}
}

func TestPDAScaling(t *testing.T) {
	rows, err := paper.PDAScaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || rows[3].Ranks != 60 {
		t.Fatalf("rows %+v, want 5 with 60 ranks fourth", rows)
	}
	for _, r := range rows {
		if r.RootNNCNests == 0 || r.ParallelNests == 0 {
			t.Fatalf("ranks=%d: no nests detected (%d, %d)", r.Ranks, r.RootNNCNests, r.ParallelNests)
		}
		// Both variants must find a comparable number of systems.
		diff := r.RootNNCNests - r.ParallelNests
		if diff < -2 || diff > 2 {
			t.Errorf("ranks=%d: nest counts diverge: %d vs %d", r.Ranks, r.RootNNCNests, r.ParallelNests)
		}
	}
	// Parallelism must pay: analysis with many ranks beats serial.
	if rows[3].ParallelClock >= rows[0].ParallelClock {
		t.Errorf("parallel NNC does not scale: %.3gs at 60 ranks vs %.3gs at 1",
			rows[3].ParallelClock, rows[0].ParallelClock)
	}
	if rows[3].RootNNCClock >= rows[0].RootNNCClock {
		t.Errorf("algorithm 1 does not scale: %.3gs at 60 ranks vs %.3gs at 1",
			rows[3].RootNNCClock, rows[0].RootNNCClock)
	}
	// The point of the extension: at scale, Algorithm 1 hits its Amdahl
	// floor (the root's sequential NNC) while the parallel variant keeps
	// scaling past it.
	if rows[3].ParallelClock >= rows[3].RootNNCClock {
		t.Errorf("parallel NNC (%.3gs) not below Algorithm 1 (%.3gs) at %d ranks",
			rows[3].ParallelClock, rows[3].RootNNCClock, rows[3].Ranks)
	}
}

func TestContentionSweep(t *testing.T) {
	rows, err := paper.Contention()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// A perfectly calibrated predictor must decide at least as well as a
	// badly miscalibrated one, and never worse than chance.
	if rows[0].CorrectPicks < rows[len(rows)-1].CorrectPicks-2 {
		t.Errorf("calibrated predictor (%d/%d) much worse than contention-blind (%d/%d)",
			rows[0].CorrectPicks, rows[0].Total,
			rows[len(rows)-1].CorrectPicks, rows[len(rows)-1].Total)
	}
	for _, r := range rows {
		if r.Total != paper.Reconfigs {
			t.Fatalf("total = %d", r.Total)
		}
		if r.CorrectPicks*2 < r.Total {
			t.Errorf("factor %.1f: below-chance decisions %d/%d", r.EstimateFactor, r.CorrectPicks, r.Total)
		}
		if r.ExcessPercent < 0 {
			t.Errorf("factor %.1f: negative excess %.2f%%", r.EstimateFactor, r.ExcessPercent)
		}
	}
}

func TestDiffusionAdvantageSurvivesLinkContentionModel(t *testing.T) {
	// The headline result must not be an artifact of the per-pair cost
	// model: replaying the synthetic churn on the DOR link-contention
	// torus must still favour diffusion.
	results, err := paper.LinkContention()
	if err != nil {
		t.Fatal(err)
	}
	if res := results[1]; res.RedistImprovementPercent <= 0 {
		t.Fatalf("diffusion loses under link contention on %s: %.1f%%", res.Machine, res.RedistImprovementPercent)
	}
}

func TestWeightPolicyAblation(t *testing.T) {
	res, err := paper.Weights()
	if err != nil {
		t.Fatal(err)
	}
	// The model-derived weights must never be meaningfully worse than
	// naive area weights (they capture per-nest overheads the area
	// ignores), and typically better.
	if res.ModelExec > res.AreaExec*1.03 {
		t.Fatalf("model weights (%.2fs) worse than area weights (%.2fs)",
			res.ModelExec, res.AreaExec)
	}
}
