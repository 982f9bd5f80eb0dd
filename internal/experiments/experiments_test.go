package experiments

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"strings"
	"testing"
)

// paper is the one run of the evaluation every test in this package reads.
var paper = NewReport(Paper)

const golden = "testdata/paper_tables.golden"

// TestPaperTables pins the whole report at the paper's settings. After an
// intended change, regenerate it from the repository root with
//
//	go run ./cmd/experiments > internal/experiments/testdata/paper_tables.golden
func TestPaperTables(t *testing.T) {
	var got bytes.Buffer
	if err := paper.Write(context.Background(), &got, "all"); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(end of output)"
	}
	for i := range max(len(g), len(w)) {
		if line(g, i) != line(w, i) {
			t.Fatalf("%s:%d differs from the report:\n got: %q\nwant: %q", golden, i+1, line(g, i), line(w, i))
		}
	}
}

// TestExperimentsDocQuotesGolden holds EXPERIMENTS.md's paper and ablation
// block (everything before "### Checkpoint/restart") to the golden: every
// number it puts in bold must be a number the report prints.
func TestExperimentsDocQuotesGolden(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	block, _, ok := strings.Cut(string(doc), "### Checkpoint/restart")
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no "### Checkpoint/restart" section to end the paper block`)
	}
	number := regexp.MustCompile(`\d+(?:\.\d+)?`)
	printed := map[string]bool{}
	for _, n := range number.FindAllString(string(want), -1) {
		printed[n] = true
	}
	quoted := 0
	for _, m := range regexp.MustCompile(`\*\*([^*]+)\*\*`).FindAllStringSubmatch(block, -1) {
		for _, n := range number.FindAllString(m[1], -1) {
			quoted++
			if !printed[n] {
				t.Errorf("EXPERIMENTS.md quotes **%s**, but %s is not a number of %s", m[1], n, golden)
			}
		}
	}
	if quoted == 0 {
		t.Fatal("EXPERIMENTS.md's paper block bolds no number")
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := paper.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Nest 5 (heaviest) starts at rank 0 with a full-height strip, exactly
	// as in the paper's Table II.
	if rows[1].NestID != 5 || rows[1].StartRank != 0 || rows[1].Width != 13 || rows[1].Height != 32 {
		t.Fatalf("nest 5 row = %+v", rows[1])
	}
}

func TestFig8DiffusionOverlap(t *testing.T) {
	res, err := paper.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if res.NewTree != "((6:0.31 3:0.27) 5:0.42)" {
		t.Fatalf("diffusion tree = %s", res.NewTree)
	}
	for _, id := range []int{3, 5} {
		if res.OverlapCells[id] == 0 {
			t.Errorf("nest %d: diffusion overlap is zero", id)
		}
		if res.ScratchOverlapCells[id] != 0 {
			t.Errorf("nest %d: scratch overlap %d, paper reports none", id, res.ScratchOverlapCells[id])
		}
	}
}

func TestFig9ClusteringComparison(t *testing.T) {
	res, err := paper.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshots == 0 {
		t.Fatal("no snapshots analyzed")
	}
	// Aggregate claim: the 1+2-hop method with the mean-deviation guard
	// overlaps far less often than the 2-hop-only baseline.
	if res.OursOverlapsTotal*2 > res.SimpleOverlapsTotal {
		t.Fatalf("ours %d overlaps vs simple %d — no clear advantage",
			res.OursOverlapsTotal, res.SimpleOverlapsTotal)
	}
	// A showcase snapshot reproducing the figure must exist: our clusters
	// disjoint, the baseline's overlapping.
	if res.ShowcaseStep == 0 {
		t.Fatal("no snapshot reproduces Fig. 9 (ours disjoint, simple overlapping)")
	}
	if len(res.ShowcaseOursRects) == 0 || res.ShowcaseSimpleOverlaps == 0 {
		t.Fatalf("showcase malformed: %+v", res)
	}
}

func TestRunSyntheticBGL1024Shape(t *testing.T) {
	results, err := paper.Table4()
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if res.Cores != 1024 || len(res.Cases) != paper.Cases {
		t.Fatalf("%s: %d cases", res.Machine, len(res.Cases))
	}
	if res.MeanDiffusionOverlap <= res.MeanScratchOverlap {
		t.Fatalf("overlap: diffusion %.1f%% <= scratch %.1f%%",
			res.MeanDiffusionOverlap, res.MeanScratchOverlap)
	}
	// §V-D: small execution-time penalty, not a collapse.
	if res.ExecPenaltyPercent > 15 {
		t.Fatalf("execution penalty %.1f%% too large", res.ExecPenaltyPercent)
	}
}

func TestRealTraceSetsDetectsChurn(t *testing.T) {
	results, err := paper.RealTrace()
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if len(res.Cases) != paper.Steps-1 {
			t.Fatalf("%s: %d cases for %d analysis points", res.Machine, len(res.Cases), paper.Steps)
		}
		if res.MaxNests == 0 {
			t.Fatalf("%s: monsoon trace produced no nests", res.Machine)
		}
		if res.Reconfigurations == 0 {
			t.Fatalf("%s: monsoon trace produced no reconfigurations", res.Machine)
		}
	}
}

func TestRunRealTraceImproves(t *testing.T) {
	results, err := paper.RealTrace()
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.RedistImprovementPercent <= 0 || res.TotalRedistImprovementPercent <= 0 {
			t.Errorf("%s: diffusion improvement %.1f%% per case, %.1f%% total; want positive",
				res.Machine, res.RedistImprovementPercent, res.TotalRedistImprovementPercent)
		}
	}
}

func TestMachines(t *testing.T) {
	m, err := BGL(512)
	if err != nil {
		t.Fatal(err)
	}
	if m.Grid.Size() != 512 || m.Net.Size() != 512 {
		t.Fatal("BGL sizing wrong")
	}
	f, err := Fist(256)
	if err != nil {
		t.Fatal(err)
	}
	if f.Net.Name() != "switched" {
		t.Fatal("fist should be switched")
	}
	if m.Model == nil || m.Oracle == nil || f.Model == nil {
		t.Fatal("machine without its profiled models")
	}
}
