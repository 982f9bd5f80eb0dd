// Command pda runs the parallel data analysis algorithm over a directory
// of split files in wrfsim's per-rank format (wrfsim.Model.WriteSplitFiles
// writes them) and prints the detected regions of interest — the
// standalone version of Algorithm 1.
//
// Usage:
//
//	pda -dir /tmp/splits -step 42 -px 18 -py 15 -n 16
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"

	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
	"nestdiff/internal/pda"
	"nestdiff/internal/topology"
	"nestdiff/internal/wrfsim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pda: ")
	var (
		dir     = flag.String("dir", ".", "directory containing split files")
		step    = flag.Int("step", 0, "simulation step to analyze")
		px      = flag.Int("px", 18, "WRF process grid width")
		py      = flag.Int("py", 15, "WRF process grid height")
		n       = flag.Int("n", 4, "number of analysis ranks")
		olr     = flag.Float64("olr", 200, "OLR threshold (W/m²)")
		verbose = flag.Bool("v", false, "print per-cluster details")
	)
	flag.Parse()

	grid := geom.NewGrid(*px, *py)
	opt := pda.DefaultOptions()
	opt.OLRThreshold = *olr

	net, err := topology.NewSwitched(*n, 8, topology.DefaultSwitchedParams())
	if err != nil {
		log.Fatal(err)
	}
	world, err := mpi.NewWorld(*n, mpi.Config{Net: net})
	if err != nil {
		log.Fatal(err)
	}
	loader := func(rank int) (wrfsim.Split, error) {
		return wrfsim.ReadSplitFile(filepath.Join(*dir, wrfsim.SplitFileName(*step, rank)))
	}
	res, err := pda.RunParallel(world, grid, loader, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analyzed %d split files on %d ranks in %.3f ms (modelled)\n",
		grid.Size(), *n, res.RootClock*1e3)
	fmt.Printf("regions of interest: %d\n", len(res.Rects))
	for i, r := range res.Rects {
		fmt.Printf("  nest %d: %v", i+1, r)
		if *verbose {
			c := res.Clusters[i]
			fmt.Printf("  (%d subdomains, mean QCLOUD %.1f)", len(c), c.MeanQCloud())
		}
		fmt.Println()
	}
}
