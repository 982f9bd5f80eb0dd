package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"nestdiff/internal/alloc"
)

// ErrUnknownSection is returned by Write for a section name it does not know.
var ErrUnknownSection = errors.New("unknown experiment")

// sections are the report's sections in print order.
var sections = []struct {
	name  string
	write func(w io.Writer, r *Report) error
}{
	{"table1", show((*Report).Table1, writeTable1)},
	{"table2", show((*Report).Table2, writeTable2)},
	{"fig8", show((*Report).Fig8, writeFig8)},
	{"fig9", show((*Report).Fig9, writeFig9)},
	{"table4", show((*Report).Table4, writeTable4)},
	{"fig10", show((*Report).Table4, writeFig10)},
	{"fig11", show((*Report).Table4, writeFig11)},
	{"real", show((*Report).RealTrace, writeRealTrace)},
	{"dynamic", show((*Report).Dynamic, writeDynamic)},
	{"scaling", show((*Report).Scaling, writeScaling)},
	{"insertion", show((*Report).Insertion, writeInsertion)},
	{"mapping", show((*Report).Mapping, writeMapping)},
	{"pdascale", show((*Report).PDAScaling, writePDAScaling)},
	{"contention", show((*Report).Contention, writeContention)},
	{"links", show((*Report).LinkContention, writeLinkContention)},
	{"weights", show((*Report).Weights, writeWeights)},
}

// show renders a section from one result of the report.
func show[T any](get func(*Report) (T, error), write func(io.Writer, T)) func(io.Writer, *Report) error {
	return func(w io.Writer, r *Report) error {
		v, err := get(r)
		if err == nil {
			write(w, v)
		}
		return err
	}
}

// Write renders the named section ("fig12" is "dynamic"), or with "all"
// every section in order, each followed by a blank line, and writes it to
// w. Between sections it stops once ctx is done; the section in flight
// finishes, so its output stays complete.
func (r *Report) Write(ctx context.Context, w io.Writer, name string) error {
	if name == "fig12" {
		name = "dynamic"
	}
	found := false
	for _, s := range sections {
		if name != "all" && s.name != name {
			continue
		}
		found = true
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("interrupted before %s: %w", s.name, err)
		}
		var b bytes.Buffer
		if err := s.write(&b, r); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if name == "all" {
			b.WriteByte('\n')
		}
		if _, err := w.Write(b.Bytes()); err != nil {
			return err
		}
	}
	if !found {
		return fmt.Errorf("%w %q", ErrUnknownSection, name)
	}
	return nil
}

func writeRows(w io.Writer, title string, rows []alloc.Row) {
	fmt.Fprintf(w, "%s\n%-8s %-10s %s\n", title, "Nest ID", "Start Rank", "Processor sub-grid")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %-10d %dx%d\n", r.NestID, r.StartRank, r.Width, r.Height)
	}
}

func writeTable1(w io.Writer, rows []alloc.Row) {
	writeRows(w, "Table I — processor allocation on 1024 cores (5 nests, weights .1:.1:.2:.25:.35)", rows)
}

func writeTable2(w io.Writer, rows []alloc.Row) {
	writeRows(w, "Table II — partition from scratch on 1024 cores (nests 3,5,6, weights .27:.42:.31)", rows)
	fmt.Fprintln(w, "note: the paper lists 19x13/19x19 for nests 3/6, inconsistent with its own")
	fmt.Fprintln(w, "weights (0.27/0.58 of 32 rows is 15); see EXPERIMENTS.md.")
}

func writeFig8(w io.Writer, res *Fig8Result) {
	fmt.Fprintln(w, "Fig. 8 — tree-based hierarchical diffusion (delete 1,2,4; retain 3,5; add 6)")
	fmt.Fprintf(w, "old tree: %s\n", res.OldTree)
	fmt.Fprintf(w, "new tree: %s\n", res.NewTree)
	writeRows(w, "new allocation:", res.NewRows)
	for _, id := range []int{3, 5} {
		fmt.Fprintf(w, "nest %d: old/new processor overlap %d cells (scratch: %d)\n",
			id, res.OverlapCells[id], res.ScratchOverlapCells[id])
	}
}

func writeFig9(w io.Writer, res *Fig9Result) {
	fmt.Fprintln(w, "Fig. 9 — nearest-neighbour clustering comparison (monsoon snapshots)")
	fmt.Fprintf(w, "snapshots analyzed:                 %d\n", res.Snapshots)
	fmt.Fprintf(w, "overlapping pairs, 2-hop baseline:  %d\n", res.SimpleOverlapsTotal)
	fmt.Fprintf(w, "overlapping pairs, 1+2-hop + 30%%:   %d\n", res.OursOverlapsTotal)
	fmt.Fprintf(w, "showcase snapshot at step %d: ours disjoint, baseline %d overlapping pairs\n",
		res.ShowcaseStep, res.ShowcaseSimpleOverlaps)
	fmt.Fprintf(w, "  our clusters:      %v\n", res.ShowcaseOursRects)
	fmt.Fprintf(w, "  baseline clusters: %v\n", res.ShowcaseSimpleRects)
}

func writeTable4(w io.Writer, results []*SyntheticResult) {
	fmt.Fprintf(w, "Table IV — mean redistribution-time improvement, diffusion vs scratch (%d synthetic cases)\n", len(results[0].Cases))
	fmt.Fprintf(w, "%-18s %-12s (paper)\n", "Configuration", "Improvement")
	paper := []string{"15%", "25%", "10%"}
	for i, res := range results {
		fmt.Fprintf(w, "%-18s %6.1f%%      %s\n", res.Machine, res.RedistImprovementPercent, paper[i])
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "supporting aggregates (§V-D/E):")
	for _, res := range results {
		fmt.Fprintf(w, "  %-18s exec penalty %.1f%% | avg hop-bytes %.2f -> %.2f | overlap %.1f%% -> %.1f%%\n",
			res.Machine, res.ExecPenaltyPercent,
			res.MeanScratchHopBytes, res.MeanDiffusionHopBytes,
			res.MeanScratchOverlap, res.MeanDiffusionOverlap)
	}
}

func writeFig10(w io.Writer, table4 []*SyntheticResult) {
	res := table4[0]
	fmt.Fprintln(w, "Fig. 10 — average hop-bytes per case, BG/L 1024 cores")
	fmt.Fprintln(w, "case,scratch,diffusion")
	for _, c := range res.Cases {
		fmt.Fprintf(w, "%d,%.3f,%.3f\n", c.Case, c.ScratchHopBytes, c.DiffusionHopBytes)
	}
	fmt.Fprintf(w, "mean,%.2f,%.2f   (paper: 5.25 vs 2.44)\n",
		res.MeanScratchHopBytes, res.MeanDiffusionHopBytes)
}

func writeFig11(w io.Writer, table4 []*SyntheticResult) {
	res := table4[0]
	fmt.Fprintln(w, "Fig. 11 — sender/receiver overlap percent per case, BG/L 1024 cores")
	fmt.Fprintln(w, "case,scratch,diffusion")
	for _, c := range res.Cases {
		fmt.Fprintf(w, "%d,%.1f,%.1f\n", c.Case, c.ScratchOverlap, c.DiffusionOverlap)
	}
	fmt.Fprintf(w, "mean,%.1f,%.1f\n", res.MeanScratchOverlap, res.MeanDiffusionOverlap)
}

func writeRealTrace(w io.Writer, results []*RealTraceResult) {
	fmt.Fprintln(w, "§V-D — real (monsoon-trace) test cases")
	paper := map[int]string{512: "14%", 1024: "12%"}
	for _, res := range results {
		fmt.Fprintf(w, "%-16s improvement %5.1f%% total / %5.1f%% per-case (paper: %s) over %d reconfigurations, up to %d nests\n",
			res.Machine, res.TotalRedistImprovementPercent, res.RedistImprovementPercent,
			paper[res.Cores], res.Reconfigurations, res.MaxNests)
	}
}

func writeDynamic(w io.Writer, res *DynamicResult) {
	fmt.Fprintf(w, "§V-F / Fig. 12 — dynamic strategy, %d reconfigurations on BG/L 1024 cores\n", res.Reconfigurations)
	fmt.Fprintf(w, "picked: scratch %d, tree-based %d (paper: 2 and 10)\n",
		res.PickedScratch, res.PickedDiffusion)
	fmt.Fprintf(w, "correct decisions: %d of %d (paper: 10 of 12)\n",
		res.CorrectPicks, res.Reconfigurations)
	fmt.Fprintf(w, "execution-time prediction Pearson r: %.2f (paper: 0.9)\n", res.PearsonR)
	fmt.Fprintln(w, "\nFig. 12 totals (seconds):")
	fmt.Fprintf(w, "%-12s %-12s %-12s %s\n", "strategy", "execution", "redistribution", "total")
	total := map[string]float64{}
	for _, s := range []string{"tree-based", "scratch", "dynamic"} {
		key := s
		if s == "tree-based" {
			key = "diffusion"
		}
		e, rd := res.ExecTotal[key], res.RedistTotal[key]
		total[key] = e + rd
		fmt.Fprintf(w, "%-12s %-12.1f %-14.1f %.1f\n", s, e, rd, e+rd)
	}
	gap, side := 100*(total["dynamic"]-total["diffusion"])/total["diffusion"], "worse"
	if gap < 0 {
		gap, side = -gap, "better"
	}
	fmt.Fprintln(w, "\ndeviations from the paper:")
	fmt.Fprintf(w, "  dynamic vs tree-based total: paper ≈3%% better, measured %.1f%% %s (%.1f vs %.1f s)\n",
		gap, side, total["dynamic"], total["diffusion"])
	fmt.Fprintf(w, "  correct decisions: paper 10 of 12, measured %d of %d\n", res.CorrectPicks, res.Reconfigurations)
}

func writeScaling(w io.Writer, results []*SyntheticResult) {
	fmt.Fprintln(w, "Ablation — scaling with processor count (§IV-B scalability claim)")
	fmt.Fprintf(w, "%-8s %-14s %-22s %-22s\n", "cores", "improvement", "mean max hops (S/D)", "avg hop-bytes (S/D)")
	for _, res := range results {
		fmt.Fprintf(w, "%-8d %6.1f%%        %6.1f / %-6.1f        %6.2f / %-6.2f\n",
			res.Cores, res.RedistImprovementPercent,
			res.MeanScratchMaxHops, res.MeanDiffusionMaxHops,
			res.MeanScratchHopBytes, res.MeanDiffusionHopBytes)
	}
}

func writeInsertion(w io.Writer, res *InsertionAblationResult) {
	fmt.Fprintln(w, "Ablation — Algorithm 3 free-slot insertion policy (closest weight vs first free)")
	fmt.Fprintf(w, "%-16s %-18s %s\n", "policy", "mean aspect ratio", "mean exec time")
	fmt.Fprintf(w, "%-16s %-18.3f %.2f s\n", "closest-weight", res.ClosestAspect, res.ClosestExec)
	fmt.Fprintf(w, "%-16s %-18.3f %.2f s\n", "first-free", res.FirstFreeAspect, res.FirstFreeExec)
}

func writeMapping(w io.Writer, results []*SyntheticResult) {
	fmt.Fprintln(w, "Ablation — folding-based topology mapping vs row-major placement (BG/L 1024)")
	fmt.Fprintf(w, "%-12s %-18s %s\n", "mapping", "avg hop-bytes", "total redist time")
	for i, label := range []string{"folded", "linear"} {
		fmt.Fprintf(w, "%-12s %-18.2f %.3f s\n", label, results[i].MeanDiffusionHopBytes, results[i].DiffusionRedistTotal)
	}
}

func writePDAScaling(w io.Writer, rows []PDAScalingRow) {
	fmt.Fprintln(w, "Extension — parallel NNC (paper future work): analysis time vs rank count")
	fmt.Fprintf(w, "%-8s %-22s %-22s\n", "ranks", "Alg.1 (root NNC)", "parallel NNC")
	for _, row := range rows {
		fmt.Fprintf(w, "%-8d %8.3f ms (%d nests) %8.3f ms (%d nests)\n",
			row.Ranks, row.RootNNCClock*1e3, row.RootNNCNests, row.ParallelClock*1e3, row.ParallelNests)
	}
}

func writeContention(w io.Writer, rows []ContentionRow) {
	fmt.Fprintln(w, "Ablation — dynamic-strategy sensitivity to redistribution-prediction calibration")
	fmt.Fprintf(w, "%-22s %-14s %s\n", "contention estimate", "correct picks", "excess over per-step best")
	for _, row := range rows {
		label := fmt.Sprintf("%.1fx true", row.EstimateFactor)
		if math.IsInf(row.EstimateFactor, 1) {
			label = "ignored"
		}
		fmt.Fprintf(w, "%-22s %d of %-10d %.2f%%\n", label, row.CorrectPicks, row.Total, row.ExcessPercent)
	}
}

func writeLinkContention(w io.Writer, results []*SyntheticResult) {
	fmt.Fprintln(w, "Ablation — redistribution priced on links: dimension-ordered routing, most-loaded link (BG/L 1024)")
	fmt.Fprintf(w, "%-22s %s\n", "redistribution model", "improvement (diffusion vs scratch)")
	for i, label := range []string{"per-pair maximum", "most-loaded link"} {
		fmt.Fprintf(w, "%-22s %5.1f%%\n", label, results[i].RedistImprovementPercent)
	}
}

func writeWeights(w io.Writer, res *WeightAblationResult) {
	fmt.Fprintln(w, "Ablation — allocation weights: model-predicted vs area-proportional (BG/L 1024)")
	fmt.Fprintf(w, "%-16s %s\n", "weights", "mean exec time")
	fmt.Fprintf(w, "%-16s %.2f s\n", "model-predicted", res.ModelExec)
	fmt.Fprintf(w, "%-16s %.2f s\n", "area", res.AreaExec)
}
