// Command experiments regenerates the tables and figures of the paper's
// evaluation section on the simulated substrates. Each experiment prints
// the rows/series the paper reports; absolute times are modelled, so the
// comparisons (who wins, by what factor) are the meaningful output. At the
// default flags `-run all` prints internal/experiments/testdata/paper_tables.golden.
//
// Usage:
//
//	experiments -run all
//	experiments -run table4 -cases 70
//	experiments -run fig10 -cases 70 > fig10.csv
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"nestdiff/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	s := experiments.Paper
	run := flag.String("run", "all", "experiment: all|table1|table2|fig8|fig9|table4|fig10|fig11|real|dynamic|fig12|scaling|insertion|mapping|pdascale|contention|links|weights")
	flag.IntVar(&s.Cases, "cases", s.Cases, "synthetic reconfiguration cases (paper: 70)")
	flag.Int64Var(&s.Seed, "seed", s.Seed, "scenario seed")
	flag.IntVar(&s.Steps, "steps", s.Steps, "monsoon steps for the real-trace experiment")
	flag.Parse()

	// Ctrl-C stops the suite between experiments; the one in flight is
	// allowed to finish so its output stays complete.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()

	err := experiments.NewReport(s).Write(ctx, os.Stdout, strings.ToLower(*run))
	switch {
	case err == nil:
	case errors.Is(err, experiments.ErrUnknownSection):
		log.Print(err)
		flag.Usage()
		os.Exit(2)
	case errors.Is(err, context.Canceled):
		log.Printf("%v; stopping", err)
	default:
		log.Fatal(err)
	}
}
