// Command nestsim runs the full framework end-to-end: the surrogate
// monsoon simulation, periodic parallel data analysis, on-the-fly nest
// spawn/delete, and processor reallocation with the chosen strategy. It
// prints one line per adaptation event and a final summary — a compressed
// version of the paper's real runs.
//
// Usage:
//
//	nestsim -steps 300 -strategy diffusion
//	nestsim -steps 600 -strategy dynamic -cores 1024 -analysis 32
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"nestdiff/internal/geom"
	"nestdiff/internal/service"
	"nestdiff/internal/topology"
	vizpkg "nestdiff/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nestsim: ")
	var (
		steps    = flag.Int("steps", 300, "parent simulation steps (2 simulated minutes each)")
		strategy = flag.String("strategy", "diffusion", "reallocation strategy: scratch|diffusion|dynamic")
		cores    = flag.Int("cores", 256, "total processor count P")
		analysis = flag.Int("analysis", 16, "parallel data analysis ranks N")
		interval = flag.Int("interval", 5, "parent steps between PDA invocations")
		seed     = flag.Int64("seed", 2607, "scenario seed")
		scen     = flag.String("scenario", "monsoon", "weather scenario: monsoon|cyclone|burst")
		verbose  = flag.Bool("v", false, "print every adaptation event")
		viz      = flag.Bool("viz", false, "render the final QCLOUD field and allocation as ASCII")
		distrib  = flag.Bool("distributed", false, "run nests block-distributed with executed Alltoallv redistribution")
		csvPath  = flag.String("csv", "", "write per-adaptation-point metrics to this CSV file")
	)
	flag.Parse()

	strat, err := service.ParseStrategy(*strategy)
	if err != nil {
		log.Fatal(err)
	}
	// The scripted-scenario job nestserved would run for the same flags.
	pipe, err := service.BuildPipeline(service.JobConfig{
		Cores:         *cores,
		Strategy:      *strategy,
		Scenario:      *scen,
		Seed:          *seed,
		Steps:         *steps,
		Interval:      *interval,
		AnalysisRanks: *analysis,
		Distributed:   *distrib,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer pipe.Close()
	tracker, m := pipe.Tracker(), pipe.Model()
	grid := tracker.Grid()

	fmt.Printf("nestsim: %d cores (%dx%d grid, %v torus), strategy %s, scenario %s, %d steps\n",
		*cores, grid.Px, grid.Py, topology.TorusDimsFor(*cores), strat, *scen, *steps)

	// Ctrl-C stops the simulation at the next step boundary; the summary
	// below still covers everything simulated so far.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	reported := 0
	interrupted := false
	for step := 0; step < *steps && !interrupted; step++ {
		if err := pipe.RunContext(ctx, 1); err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Printf("\ninterrupted at step %d of %d\n", pipe.StepCount(), *steps)
				interrupted = true
				continue
			}
			log.Fatal(err)
		}
		for _, e := range pipe.Events()[reported:] {
			reported++
			if !*verbose && len(e.Diff.Added)+len(e.Diff.Deleted) == 0 {
				continue
			}
			fmt.Printf("t=%5.0f min  nests=%d (+%d -%d =%d)  exec=%6.1fs redist=%6.3fs  overlap=%5.1f%%  [%s]\n",
				float64(e.Step)*m.Config().Dt/60, len(e.Set),
				len(e.Diff.Added), len(e.Diff.Deleted), len(e.Diff.Retained),
				e.Metrics.ExecTime, e.Metrics.RedistTime, e.Metrics.Redist.OverlapPercent,
				e.Metrics.Used)
		}
	}

	exec, redist := tracker.Totals()
	liveNests := len(pipe.Nests())
	if *distrib {
		liveNests = len(pipe.DistributedNests())
	}
	fmt.Printf("\nsummary: %d adaptation points, %d live nests at end\n",
		len(pipe.Events()), liveNests)
	fmt.Printf("total modelled execution time:      %8.1f s\n", exec)
	fmt.Printf("total modelled redistribution time: %8.3f s\n", redist)
	if *distrib {
		var executed float64
		for _, e := range pipe.Events() {
			executed += e.ExecutedRedistTime
		}
		fmt.Printf("total executed redistribution time: %8.3f s (real Alltoallv on virtual clock)\n", executed)
	}
	if a := tracker.Allocation(); a != nil && len(a.Rects) > 0 {
		fmt.Println("final allocation:")
		for _, r := range a.Table() {
			fmt.Printf("  nest %-3d start rank %-5d sub-grid %dx%d\n", r.NestID, r.StartRank, r.Width, r.Height)
		}
	}

	if *viz {
		nestRegions := map[int]geom.Rect{}
		for _, spec := range pipe.ActiveSet() {
			nestRegions[spec.ID] = spec.Region
		}
		fmt.Println("\nQCLOUD field with nest regions:")
		fmt.Print(vizpkg.Heatmap(m.QCloud(), 90, 30, nestRegions))
		fmt.Println()
		fmt.Print(vizpkg.AllocationGrid(tracker.Allocation(), 64))
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := tracker.WriteCSV(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
}
