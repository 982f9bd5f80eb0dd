package main

import (
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of one workload × end-to-end metric row.
const (
	verdictWithin     = "within bound"
	verdictBetter     = "better"
	verdictWorse      = "WORSE"
	verdictUnresolved = "unresolved"
	verdictEqual      = "equal"
	verdictDiffers    = "DIFFERS"
	verdictMissing    = "MISSING"
	verdictFailedOps  = "FAILED OPS"
)

// compareRow is one row of `nestbench compare`.
type compareRow struct {
	Workload, Metric, Unit string
	A, B                   float64
	// Change is B relative to A, signed so that positive is worse.
	Change  float64
	Verdict string
}

// compareMetric judges B against A for one metric. Exact metrics compare
// by equality. A timed metric whose run-to-run spread (in either file) is
// wider than its bound cannot resolve a difference of that size, so it is
// reported unresolved rather than unchanged — unless every round of B
// reads better than every round of A.
func compareMetric(a, b metricResult) (change float64, verdict string) {
	if a.Exact {
		if a.Median == b.Median {
			return 0, verdictEqual
		}
		return 0, verdictDiffers
	}
	change = (b.Median - a.Median) / a.Median
	if a.Better == "higher" {
		change = -change
	}
	allBetter := len(a.Rounds) > 0 && len(b.Rounds) > 0
	for _, x := range a.Rounds {
		for _, y := range b.Rounds {
			if (a.Better == "lower" && y >= x) || (a.Better == "higher" && y <= x) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter && change < -a.Bound:
		return change, verdictBetter
	case max(a.Spread, b.Spread) > a.Bound:
		return change, verdictUnresolved
	case change > a.Bound:
		return change, verdictWorse
	case change < -a.Bound:
		return change, verdictBetter
	}
	return change, verdictWithin
}

// compareResults builds the rows and reports whether B agrees with A: no
// timed metric's median worse by more than its bound (an unresolved row
// counts too: a spread wider than the bound does not excuse a median that
// moved past it), every exact metric and digest equal, no failed operation
// on either side.
func compareResults(a, b *benchResult) (rows []compareRow, notes []string, ok bool) {
	ok = true
	if a.Host != b.Host {
		notes = append(notes, fmt.Sprintf("host blocks differ (%+v vs %+v): timings are not comparable", a.Host, b.Host))
	}
	if a.Seed != b.Seed || a.Smoke != b.Smoke {
		notes = append(notes, fmt.Sprintf("inputs differ (seed %d smoke %v vs seed %d smoke %v): exact metrics and digests will not match", a.Seed, a.Smoke, b.Seed, b.Smoke))
	}
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			rows = append(rows, compareRow{Workload: wa.Name, Metric: "*", Verdict: verdictMissing})
			ok = false
			continue
		}
		for _, ma := range wa.EndToEnd {
			mb := wb.metric(ma.Name)
			if mb == nil {
				rows = append(rows, compareRow{Workload: wa.Name, Metric: ma.Name, Unit: ma.Unit, A: ma.Median, Verdict: verdictMissing})
				ok = false
				continue
			}
			change, verdict := compareMetric(ma, *mb)
			rows = append(rows, compareRow{wa.Name, ma.Name, ma.Unit, ma.Median, mb.Median, change, verdict})
			if verdict == verdictWorse || verdict == verdictDiffers || (verdict == verdictUnresolved && change > ma.Bound) {
				ok = false
			}
		}
		digest := verdictEqual
		if wa.Digest != wb.Digest {
			digest, ok = verdictDiffers, false
		}
		rows = append(rows, compareRow{Workload: wa.Name, Metric: "digest", Verdict: digest})
		shareA, shareB := ratio(float64(wa.OpsFailed), float64(wa.OpsAttempted)), ratio(float64(wb.OpsFailed), float64(wb.OpsAttempted))
		failed := verdictEqual
		if wa.OpsFailed > 0 || wb.OpsFailed > 0 {
			failed, ok = verdictFailedOps, false
		}
		rows = append(rows, compareRow{Workload: wa.Name, Metric: "failed-op share", Unit: "%", A: 100 * shareA, B: 100 * shareB, Verdict: failed})
	}
	return rows, notes, ok
}

func printCompare(w io.Writer, rows []compareRow, notes []string, ok bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tMETRIC\tUNIT\tA\tB\tCHANGE (+ = worse)\tVERDICT")
	for _, r := range rows {
		if r.Unit == "" { // digest and missing rows carry no numbers
			fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t%s\n", r.Workload, r.Metric, r.Verdict)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%s\n", r.Workload, r.Metric, r.Unit, r.A, r.B, 100*r.Change, r.Verdict)
	}
	tw.Flush()
	for _, n := range notes {
		fmt.Fprintln(w, "note:", n)
	}
	counts := map[string]int{}
	for _, r := range rows {
		counts[r.Verdict]++
	}
	fmt.Fprintf(w, "\ntimed rows: %d within bound, %d better, %d worse, %d unresolved (spread over the rounds wider than the bound)\n",
		counts[verdictWithin], counts[verdictBetter], counts[verdictWorse], counts[verdictUnresolved])
	if ok {
		fmt.Fprintln(w, "agree: no median worse than its bound, exact metrics and digests equal, no failed operation")
	} else {
		fmt.Fprintln(w, "DISAGREE")
	}
}

// compareMain is `nestbench compare A.json B.json`; exit status 0 when the
// two files agree, 1 when they do not, 2 on a usage or read error.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: nestbench compare A.json B.json")
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "nestbench:", err)
		return 2
	}
	b, err := readResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "nestbench:", err)
		return 2
	}
	rows, notes, ok := compareResults(a, b)
	printCompare(os.Stdout, rows, notes, ok)
	if !ok {
		return 1
	}
	return 0
}
