package mpi_test

import (
	"testing"
	"time"

	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
	"nestdiff/internal/pda"
	"nestdiff/internal/wrfsim"
)

// TestCommRegistryDoesNotGrow is the long-running job in small: one PDA
// invocation per analysis interval and one communicator per executed
// redistribution must leave the worlds' poison lists the length they were.
func TestCommRegistryDoesNotGrow(t *testing.T) {
	cfg := wrfsim.DefaultConfig()
	cfg.NX, cfg.NY = 96, 72
	cfg.SpawnRate = 0
	m, err := wrfsim.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InjectCell(wrfsim.Cell{X: 24, Y: 20, Radius: 5, Peak: 2.5, Life: 14400}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		m.Step()
	}
	pg := geom.NewGrid(8, 6)
	splits, err := m.Splits(pg)
	if err != nil {
		t.Fatal(err)
	}
	loader := func(rank int) (wrfsim.Split, error) { return splits[rank], nil }

	analysis, err := mpi.NewWorld(6, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	all, err := analysis.All()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := pda.RunParallel(analysis, pg, loader, pda.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	if again, _ := analysis.All(); again != all {
		t.Fatal("All returned a second all-ranks communicator")
	}
	if n := analysis.LiveComms(); n != 1 {
		t.Fatalf("analysis world holds %d communicators after 1000 PDA invocations, want the one All built", n)
	}

	compute, err := mpi.NewWorld(pg.Size(), mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nest, err := m.NewParallelNest(1, geom.NewRect(12, 10, 24, 20), pg, geom.NewRect(0, 0, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	before := compute.LiveComms()
	for i := 0; i < 100; i++ {
		if _, err := nest.Redistribute(compute, geom.NewRect(i%3, i%2, 4+i%3, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if n := compute.LiveComms(); n != before {
		t.Fatalf("compute world holds %d communicators after 100 redistributions, had %d", n, before)
	}
}

// TestPoisonAfterFreeStillFailsFast: freeing one communicator must not
// loosen the poison list for the rest — a rank that dies while its peers
// wait in a collective still unwinds the dispatch, and the dead world
// refuses the next one.
func TestPoisonAfterFreeStillFailsFast(t *testing.T) {
	w, err := mpi.NewWorld(4, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := w.NewComm([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	kept, err := w.NewComm([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunOn([]int{1, 2}, pair.Barrier); err != nil {
		t.Fatal(err)
	}
	pair.Free()
	pair.Free() // a second Free finds nothing to remove
	if n := w.LiveComms(); n != 1 {
		t.Fatalf("%d communicators registered after Free, want 1", n)
	}

	done := make(chan error, 1)
	go func() {
		done <- w.RunOn([]int{0, 1, 2}, func(r *mpi.Rank) {
			if r.ID() == 2 {
				panic("rank 2 dies before the barrier")
			}
			kept.Barrier(r)
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("dispatch with a dead rank reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ranks waiting on a communicator registered before the Free were never poisoned")
	}
	if err := w.RunOn([]int{0}, func(*mpi.Rank) { t.Error("a failed world ran a rank") }); err == nil {
		t.Fatal("failed world accepted another dispatch")
	}
}
