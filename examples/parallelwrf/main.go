// Parallelwrf: the distributed substrate end to end — analyze the parent
// simulation's per-rank split files with the fully parallel clustering
// pipeline, then run the distributed nest pipeline and checkpoint/restore
// it mid-run to show that long campaigns resume bit-identically.
package main

import (
	"bytes"
	"fmt"
	"log"
	"reflect"
	"slices"

	"nestdiff"
)

func main() {
	log.SetFlags(0)

	// A 48-core machine: the parent simulation writes one split file per
	// rank of its 8x6 process grid.
	sys, err := nestdiff.NewTorusSystem(48)
	if err != nil {
		log.Fatal(err)
	}
	cfg := nestdiff.DefaultWeatherConfig()
	cfg.NX, cfg.NY = 96, 72
	cfg.SpawnRate = 0
	parent, err := nestdiff.NewWeatherModel(cfg)
	if err != nil {
		log.Fatal(err)
	}
	storms := []nestdiff.Cell{
		{X: 20, Y: 18, Radius: 5, Peak: 2.5, Life: 4 * 3600},
		{X: 70, Y: 50, VX: -1.5e-3, Radius: 4, Peak: 2.0, Life: 5 * 3600},
	}
	for _, c := range storms {
		if err := parent.InjectCell(c); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		parent.Step()
	}
	fmt.Printf("parent run: %d steps, %.0f simulated minutes, split over %d ranks\n",
		parent.StepCount(), parent.Time()/60, sys.Grid.Size())

	// Detect organized systems straight from the per-rank split files with
	// the parallel clustering pipeline (no sequential bottleneck).
	splits, err := parent.Splits(sys.Grid)
	if err != nil {
		log.Fatal(err)
	}
	rects, clusters, err := nestdiff.AnalyzeSplitsParallel(splits, sys.Grid, 12, nestdiff.DefaultPDAOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel analysis over %d split files on 12 ranks: %d systems\n", len(splits), len(rects))
	for i, r := range rects {
		fmt.Printf("  system %d: region %v (%d subdomains)\n", i+1, r, len(clusters[i]))
	}

	// Finally, the fully distributed pipeline: nests live block-distributed
	// over their allocated sub-rectangles, and every reallocation executes
	// a real in-place Alltoallv.
	driver, err := nestdiff.NewWeatherModel(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range storms {
		if err := driver.InjectCell(c); err != nil {
			log.Fatal(err)
		}
	}
	tracker, err := sys.NewTracker(nestdiff.Diffusion)
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := sys.NewPipeline(driver, tracker, nestdiff.PipelineConfig{
		WRFGrid:       nestdiff.NewGrid(8, 6),
		AnalysisRanks: 6,
		Interval:      5,
		PDA:           nestdiff.DefaultPDAOptions(),
		MaxNests:      4,
		Distributed:   true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer pipe.Close()
	if err := pipe.Run(60); err != nil {
		log.Fatal(err)
	}

	// Checkpoint/restore: the pipeline saved at step 60 and restored on
	// the same system resumes bit-identically — the campaign survives
	// restarts.
	var ckpt bytes.Buffer
	if err := pipe.SaveState(&ckpt); err != nil {
		log.Fatal(err)
	}
	restored, err := sys.RestorePipeline(&ckpt)
	if err != nil {
		log.Fatal(err)
	}
	defer restored.Close()
	if err := pipe.Run(60); err != nil {
		log.Fatal(err)
	}
	if err := restored.Run(60); err != nil {
		log.Fatal(err)
	}
	if !reflect.DeepEqual(pipe.Events(), restored.Events()) {
		log.Fatal("restored pipeline's adaptation events differ from the uninterrupted run's")
	}
	if !slices.Equal(pipe.Model().QCloud().Data, restored.Model().QCloud().Data) {
		log.Fatal("restored pipeline's parent field differs from the uninterrupted run's")
	}
	for id, n := range pipe.DistributedNests() {
		r, ok := restored.DistributedNests()[id]
		if !ok || !slices.Equal(n.Gather().Data, r.Gather().Data) {
			log.Fatalf("restored pipeline's nest %d differs from the uninterrupted run's", id)
		}
	}
	fmt.Printf("checkpoint at step 60, resumed to step %d: bit-identical = true\n", restored.StepCount())

	var executed float64
	for _, e := range pipe.Events() {
		executed += e.ExecutedRedistTime
	}
	fmt.Printf("distributed pipeline: %d adaptation points, %d distributed nests live, %.3f ms of executed Alltoallv\n",
		len(pipe.Events()), len(pipe.DistributedNests()), executed*1e3)
}
