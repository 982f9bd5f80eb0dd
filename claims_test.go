package nestdiff

// claims_test asserts the paper's headline claims on the one run of the
// evaluation that cmd/experiments prints and
// internal/experiments/testdata/paper_tables.golden pins.

import (
	"testing"

	"nestdiff/internal/experiments"
)

var paper = experiments.NewReport(experiments.Paper)

func TestPaperClaim_TableIExactReproduction(t *testing.T) {
	rows, err := paper.Table1()
	if err != nil {
		t.Fatal(err)
	}
	want := [][4]int{ // nest, start rank, width, height — Table I verbatim
		{1, 0, 13, 8}, {2, 256, 13, 8}, {3, 512, 13, 16}, {4, 13, 19, 13}, {5, 429, 19, 19},
	}
	if len(rows) != len(want) {
		t.Fatalf("Table I has %d rows, paper has %d", len(rows), len(want))
	}
	for i, w := range want {
		r := rows[i]
		if r.NestID != w[0] || r.StartRank != w[1] || r.Width != w[2] || r.Height != w[3] {
			t.Fatalf("Table I row %d = %+v, paper says %v", i, r, w)
		}
	}
}

func TestPaperClaim_DiffusionReducesRedistribution(t *testing.T) {
	// Abstract: "up to 25% lower redistribution cost ... than the
	// processor reallocation strategy that does not consider the existing
	// processor allocation". Shape claim: positive improvement on every
	// machine of Table III, largest gains on the torus.
	rows, err := paper.Table4()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.RedistImprovementPercent <= 0 {
			t.Fatalf("%s: no improvement (%.1f%%)", r.Machine, r.RedistImprovementPercent)
		}
	}
	if rows[1].RedistImprovementPercent <= rows[2].RedistImprovementPercent {
		t.Fatalf("torus (%.1f%%) should out-gain the switched cluster (%.1f%%)",
			rows[1].RedistImprovementPercent, rows[2].RedistImprovementPercent)
	}
}

func TestPaperClaim_HopBytesReduction(t *testing.T) {
	// Abstract: "53% lesser hop-bytes". Shape claim: a large hop-bytes
	// reduction on BG/L 1024 (ours: 4.74 → 2.90, 39%).
	rows, err := paper.Table4()
	if err != nil {
		t.Fatal(err)
	}
	res := rows[0]
	reduction := 100 * (res.MeanScratchHopBytes - res.MeanDiffusionHopBytes) / res.MeanScratchHopBytes
	if reduction < 20 {
		t.Fatalf("hop-bytes reduction %.0f%%, want a large cut (paper: 53%%)", reduction)
	}
}

func TestPaperClaim_DynamicCombinesBothStrategies(t *testing.T) {
	// §V-F / Fig. 12: tree-based has the lowest redistribution and the
	// dynamic strategy combines both pure strategies. Two of the paper's
	// numbers do not reproduce and are printed as deviations in the
	// golden's Fig. 12 section rather than absorbed by a slack: the paper's
	// dynamic total is ≈3% below tree-based, ours is 0.7% above it (187.5
	// vs 186.2 s), and it picks correctly 9 of 12 times, not 10. What holds
	// is that dynamic's total lies between the two pure strategies'.
	res, err := paper.Dynamic()
	if err != nil {
		t.Fatal(err)
	}
	tree := res.RedistTotal["diffusion"]
	if tree >= res.RedistTotal["scratch"] || tree >= res.RedistTotal["dynamic"] {
		t.Fatalf("tree-based redistribution %.1f not lowest (scratch %.1f, dynamic %.1f)",
			tree, res.RedistTotal["scratch"], res.RedistTotal["dynamic"])
	}
	total := func(s string) float64 { return res.ExecTotal[s] + res.RedistTotal[s] }
	lo, hi := min(total("diffusion"), total("scratch")), max(total("diffusion"), total("scratch"))
	if dyn := total("dynamic"); dyn < lo || dyn > hi {
		t.Fatalf("dynamic total %.1f outside the pure strategies' [%.1f, %.1f]", dyn, lo, hi)
	}
	if res.PearsonR < 0.7 {
		t.Fatalf("execution prediction r = %.2f (paper: 0.9)", res.PearsonR)
	}
}
