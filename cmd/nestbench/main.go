// Command nestbench is the repository's benchmark: five workloads, their
// end-to-end metrics, and a per-layer budget measured from outside each
// layer by timing calls into its exported functions. bench/README.md is
// the glossary.
//
//	go run ./cmd/nestbench -seed 2607 -out bench/out/BENCH.json   # the whole suite
//	go run ./cmd/nestbench compare A.json B.json                   # two result files
//	go run ./cmd/nestbench --workload W --seed N --seconds S --trace 0|1
//
// The third form is what BENCHMARK.json's driver runs: one workload
// measured for S seconds, one JSON object on the last line of standard
// output.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		seed   = flag.Int64("seed", 2607, "every generated input derives from this seed")
		rounds = flag.Int("rounds", 0, "override the suite's rounds per workload (0: as declared)")
		only   = flag.String("only", "", "run only these workloads (comma-separated)")
		smoke  = flag.Bool("smoke", false, "tiny sizes, for tests: numbers are not comparable with a full run")
		out    = flag.String("out", "", "write the result JSON here (default: bench/out/BENCH.json; smoke runs write nothing)")

		workload = flag.String("workload", "", "BENCHMARK.json run: measure this one workload and print one JSON line")
		seconds  = flag.Float64("seconds", 10, "BENCHMARK.json run: how long to measure")
		trace    = flag.Int("trace", 0, "BENCHMARK.json run: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	)
	flag.Parse()
	// An interrupted run still stops every daemon it started.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killFleets()
		os.Exit(130)
	}()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	suite, bench, err := loadSuite(root)
	if err != nil {
		fatal(err)
	}
	// Temp files, the built daemons, traces and the result all go under
	// bench/out, which is git-ignored and inside the checkout.
	workDir := filepath.Join(root, "bench", "out")

	if *workload != "" {
		*only = *workload
	}
	r, err := newRunner(suite, bench, *smoke, *only, *seed, workDir)
	if err != nil {
		fatal(err)
	}
	if *workload != "" {
		if err := contractMain(os.Stdout, r, *seconds, *trace != 0); err != nil {
			fatal(err)
		}
		return
	}

	start := time.Now()
	progress := func(msg string) {
		fmt.Fprintf(os.Stderr, "[%6.1fs] %s\n", time.Since(start).Seconds(), msg)
	}
	if err := r.runSuite(*rounds, progress); err != nil {
		fatal(err)
	}
	res := r.result(readHost(), *smoke)
	res.print(os.Stdout)
	if err := r.env.rec.write(filepath.Join(workDir, "trace.json")); err != nil {
		fatal(err)
	}
	if *out == "" && !*smoke {
		*out = filepath.Join(workDir, "BENCH.json")
	}
	if *out != "" {
		if err := res.write(*out); err != nil {
			fatal(err)
		}
		progress("wrote " + *out)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nestbench:", err)
	os.Exit(2)
}
