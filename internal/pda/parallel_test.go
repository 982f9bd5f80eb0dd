package pda

import (
	"fmt"
	"testing"

	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
	"nestdiff/internal/topology"
	"nestdiff/internal/wrfsim"
)

// memLoader serves splits from memory by WRF rank.
func memLoader(splits []wrfsim.Split) func(rank int) (wrfsim.Split, error) {
	return func(rank int) (wrfsim.Split, error) {
		if rank < 0 || rank >= len(splits) {
			return wrfsim.Split{}, fmt.Errorf("no split for rank %d", rank)
		}
		return splits[rank], nil
	}
}

// analysisWorld is a switched world of n analysis ranks, closed when the
// test ends.
func analysisWorld(t testing.TB, n int) *mpi.World {
	t.Helper()
	net, err := topology.NewSwitched(n, 8, topology.DefaultSwitchedParams())
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(n, mpi.Config{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestRunParallelMatchesSerial(t *testing.T) {
	// The parallel pipeline must produce exactly the serial pipeline's
	// rectangles regardless of the number of analysis ranks.
	m := stormModel(t)
	pg := geom.NewGrid(8, 6)
	splits := stormSplits(t, m, pg)
	opt := DefaultOptions()
	wantRects, wantClusters, err := Analyze(splits, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantClusters) == 0 {
		t.Fatal("serial analysis found nothing; test is vacuous")
	}
	for _, n := range []int{1, 2, 4, 6, 12, 48} {
		w := analysisWorld(t, n)
		res, err := RunParallel(w, pg, memLoader(splits), opt)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if res == nil {
			t.Fatalf("N=%d: nil result", n)
		}
		if len(res.Rects) != len(wantRects) {
			t.Fatalf("N=%d: %d rects, serial found %d", n, len(res.Rects), len(wantRects))
		}
		got := map[geom.Rect]bool{}
		for _, r := range res.Rects {
			got[r] = true
		}
		for _, r := range wantRects {
			if !got[r] {
				t.Fatalf("N=%d: rect %v missing (got %v)", n, r, res.Rects)
			}
		}
	}
}

func TestRunParallelChargesTime(t *testing.T) {
	m := stormModel(t)
	pg := geom.NewGrid(8, 6)
	splits := stormSplits(t, m, pg)
	w := analysisWorld(t, 4)
	res, err := RunParallel(w, pg, memLoader(splits), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.RootClock <= 0 {
		t.Fatalf("root clock %g, want > 0 (compute + gather time)", res.RootClock)
	}
}

func TestRunParallelScalesDown(t *testing.T) {
	// More analysis ranks must not increase the modelled analysis time
	// dramatically; with more ranks each reads fewer points, so the
	// pre-gather compute shrinks. (Exact speedup depends on the gather.)
	m := stormModel(t)
	pg := geom.NewGrid(12, 9)
	splits := stormSplits(t, m, pg)
	t1res, err := RunParallel(analysisWorld(t, 1), pg, memLoader(splits), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t12res, err := RunParallel(analysisWorld(t, 12), pg, memLoader(splits), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if t12res.RootClock >= t1res.RootClock {
		t.Fatalf("12-rank analysis (%.3gs) not faster than serial (%.3gs)",
			t12res.RootClock, t1res.RootClock)
	}
}

func TestRunParallelTooManyRanks(t *testing.T) {
	w := analysisWorld(t, 64)
	if _, err := RunParallel(w, geom.NewGrid(4, 3), nil, DefaultOptions()); err == nil {
		t.Fatal("more ranks than files accepted")
	}
}

func TestRunParallelLoaderErrorPropagates(t *testing.T) {
	w := analysisWorld(t, 4)
	loader := func(rank int) (wrfsim.Split, error) {
		return wrfsim.Split{}, fmt.Errorf("disk on fire")
	}
	if _, err := RunParallel(w, geom.NewGrid(4, 3), loader, DefaultOptions()); err == nil {
		t.Fatal("loader error swallowed")
	}
}

func TestRunParallelFromFiles(t *testing.T) {
	// End-to-end through the on-disk split-file path.
	dir := t.TempDir()
	m := stormModel(t)
	pg := geom.NewGrid(8, 6)
	if err := m.WriteSplitFiles(dir, pg); err != nil {
		t.Fatal(err)
	}
	loader := func(rank int) (wrfsim.Split, error) {
		return wrfsim.ReadSplitFile(fmt.Sprintf("%s/%s", dir, wrfsim.SplitFileName(m.StepCount(), rank)))
	}
	w := analysisWorld(t, 6)
	res, err := RunParallel(w, pg, loader, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rects) != 2 {
		t.Fatalf("file-based analysis found %d nests, want 2", len(res.Rects))
	}
}

// TestRunParallelAllocationsFlatInAggregates: on a warm world, an analysis
// round over in-place windows allocates the same count whatever the
// number of aggregates — per rank and at the root, encoding, gathering,
// decoding and clustering draw on reused buffers; only the closures, the
// result and its one backing array per slice are new. Two storm
// populations on one grid must read the same count.
func TestRunParallelAllocationsFlatInAggregates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	pg := geom.NewGrid(12, 9)
	w := analysisWorld(t, 6)
	opt := DefaultOptions()
	round := func(m *wrfsim.Model) (allocs float64, aggregates, clusters int) {
		windows, err := m.SplitWindows(nil, pg)
		if err != nil {
			t.Fatal(err)
		}
		loader := memLoader(windows)
		var res *Result
		run := func() {
			if res, err = RunParallel(w, pg, loader, opt); err != nil {
				t.Fatal(err)
			}
		}
		for range 5 {
			run()
		}
		allocs = testing.AllocsPerRun(50, run)
		for _, c := range res.Clusters {
			clusters++
			aggregates += len(c)
		}
		return allocs, aggregates, clusters
	}
	few, fewAggs, fewClusters := round(stormModel(t))
	many, manyAggs, manyClusters := round(manyStormModel(t))
	t.Logf("%d clustered aggregates in %d clusters: %v allocations; %d in %d: %v",
		fewAggs, fewClusters, few, manyAggs, manyClusters, many)
	if manyAggs < 2*fewAggs || manyClusters <= fewClusters {
		t.Fatalf("populations too alike to compare: %d vs %d aggregates, %d vs %d clusters",
			fewAggs, manyAggs, fewClusters, manyClusters)
	}
	if many != few {
		t.Fatalf("a round allocates %v objects for %d aggregates but %v for %d", many, manyAggs, few, fewAggs)
	}
}

// manyStormModel is stormModel's domain with eight storms over it.
func manyStormModel(t testing.TB) *wrfsim.Model {
	t.Helper()
	var storms []wrfsim.Cell
	for i := range 8 {
		storms = append(storms, wrfsim.Cell{X: float64(10 + 24*(i%4)), Y: float64(14 + 40*(i/4)), Radius: 5, Peak: 2.5, Life: 14400})
	}
	return matureModel(t, storms)
}
