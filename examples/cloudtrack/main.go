// Cloudtrack: the paper's case study end to end — run the surrogate
// monsoon simulation, detect organized cloud systems from per-rank split
// files with the parallel data analysis algorithm, spawn 3x-resolution
// nests over them, and keep reallocating processors with the diffusion
// strategy as storms form, drift and dissipate.
package main

import (
	"fmt"
	"log"

	"nestdiff"
)

func main() {
	log.SetFlags(0)

	// The scripted Mumbai-2005-like monsoon over the Indian region.
	mc := nestdiff.DefaultMonsoonConfig()
	mc.Steps = 240 // 8 simulated hours at 2-minute steps

	wcfg := nestdiff.DefaultWeatherConfig()
	wcfg.NX, wcfg.NY = mc.NX, mc.NY
	wcfg.SpawnRate = 0 // genesis comes from the script
	wcfg.Genesis = nestdiff.MonsoonSchedule(mc)
	model, err := nestdiff.NewWeatherModel(wcfg)
	if err != nil {
		log.Fatal(err)
	}

	sys, err := nestdiff.NewTorusSystem(256)
	if err != nil {
		log.Fatal(err)
	}
	tracker, err := sys.NewTracker(nestdiff.Diffusion)
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := sys.NewPipeline(model, tracker, nestdiff.PipelineConfig{
		WRFGrid:       nestdiff.NewGrid(18, 15),
		AnalysisRanks: 16,
		Interval:      5, // PDA every 10 simulated minutes
		PDA:           nestdiff.DefaultPDAOptions(),
		MaxNests:      9,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer pipe.Close()

	if err := pipe.Run(mc.Steps); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("simulated %.0f hours; %d adaptation points\n",
		model.Time()/3600, len(pipe.Events()))
	births, deaths := 0, 0
	for _, e := range pipe.Events() {
		births += len(e.Diff.Added)
		deaths += len(e.Diff.Deleted)
	}
	fmt.Printf("storm systems tracked: %d spawned, %d dissipated, %d live at end\n",
		births, deaths, len(pipe.Nests()))

	exec, redist := tracker.Totals()
	fmt.Printf("modelled cost: execution %.1f s, redistribution %.3f s\n", exec, redist)

	fmt.Println("\nlive nests:")
	for _, spec := range pipe.ActiveSet() {
		nest := pipe.Nests()[spec.ID]
		nx, ny := nest.Size()
		fmt.Printf("  nest %-3d region %-18v fine grid %dx%d, peak QCLOUD %.2f\n",
			spec.ID, spec.Region, nx, ny, nest.QCloud().Max())
	}
}
