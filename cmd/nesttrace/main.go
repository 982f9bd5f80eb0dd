// Command nesttrace summarizes a nestdiff trace ledger: the append-only
// event log a traced job writes when nestserved runs with -ledger-dir.
// The input must be a ledger, one CRC-framed obs.Event per line
// ({"crc":...,"rec":{...}}); a bare JSONL stream of events is not one.
//
// Usage:
//
//	nesttrace ledger/job-1.jsonl
//	nesttrace -json ledger/job-1.jsonl
//
// The text report has three parts: the per-phase wall-time breakdown with
// p50/p90/p99 latencies, the adaptation-event table (one row per PDA
// invocation that changed the nest set), and the scratch-vs-diffusion
// decision tally — how often the dynamic predictor picked the candidate
// that actually turned out cheaper, and the total regret when it did not.
//
// Reading stops at the first torn or corrupt line (the job's process died
// mid-append); the lines from there on are reported as skipped, never
// fatal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"nestdiff/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nesttrace: ")
	asJSON := flag.Bool("json", false, "emit the summary as JSON instead of text")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: nesttrace [-json] LEDGER.jsonl\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	events, skipped, err := obs.ReadLedgerFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	sum := obs.Summarize(events)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			obs.Summary
			Skipped int `json:"skipped_lines,omitempty"`
		}{sum, skipped}); err != nil {
			log.Fatal(err)
		}
		return
	}
	report(os.Stdout, flag.Arg(0), sum, skipped)
}

// report renders the text summary.
func report(out *os.File, path string, s obs.Summary, skipped int) {
	fmt.Fprintf(out, "ledger %s: %d events through step %d", path, s.Events, s.Steps)
	if skipped > 0 {
		fmt.Fprintf(out, " (%d torn or corrupt line(s) skipped)", skipped)
	}
	fmt.Fprintln(out)

	fmt.Fprintf(out, "\nPhase breakdown\n")
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "series\tkind\tcount\ttotal\tp50\tp90\tp99")
	for _, p := range s.Phases {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%s\t%s\n",
			p.Name, p.Kind, p.Count, ns(p.TotalNS), ns(p.P50NS), ns(p.P90NS), ns(p.P99NS))
	}
	tw.Flush()

	fmt.Fprintf(out, "\nAdaptation events: %d (nests: +%d spawned, %d moved, -%d deleted)\n",
		len(s.Adaptations), s.NestSpawns, s.NestMoves, s.NestDeletes)
	if len(s.Adaptations) > 0 {
		tw = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "step\tstrategy\tpredicted\tactual\thop-bytes\tredist-bytes\tdetail")
		for _, e := range s.Adaptations {
			fmt.Fprintf(tw, "%d\t%s\t%.4g\t%.4g\t%.4g\t%d\t%s\n",
				e.Step, e.Strategy, e.Predicted, e.Actual, e.HopBytes, e.RedistBytes, e.Detail)
		}
		tw.Flush()
	}

	d := s.Decisions
	fmt.Fprintf(out, "\nReallocation decisions: %d (%d scratch, %d diffusion)\n",
		d.Decisions, d.ScratchPicks, d.DiffusionPicks)
	if d.Decisions > 0 {
		fmt.Fprintf(out, "  predicted cost %.4g s, actual cost %.4g s\n", d.PredictedTotal, d.ActualTotal)
	}
	if d.Dynamic > 0 {
		fmt.Fprintf(out, "  dynamic predictor: %d/%d correct picks, total regret %.4g s\n",
			d.Correct, d.Dynamic, d.RegretTotal)
	}
}

// ns renders a nanosecond count as a rounded duration.
func ns(v int64) string {
	return time.Duration(v).Round(time.Microsecond).String()
}
