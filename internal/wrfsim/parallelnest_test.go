package wrfsim

import (
	"fmt"
	"math"
	"testing"

	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
	"nestdiff/internal/topology"
)

// parallelWorld is a world of n ranks on a torus, closed when the test
// ends.
func parallelWorld(t testing.TB, n int) *mpi.World {
	t.Helper()
	px, py := geom.NearSquareFactors(n)
	g := geom.NewGrid(px, py)
	net, err := topology.NewTorus3D(g, topology.TorusDimsFor(n), topology.DefaultTorusParams())
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

func testCells() []Cell {
	return []Cell{
		{X: 20, Y: 18, Radius: 5, Peak: 2.5, Life: 14400},
		{X: 70, Y: 50, VX: -1.5e-3, VY: 3e-4, Radius: 4, Peak: 2.0, Life: 10800},
		{X: 45, Y: 30, Radius: 3, Peak: 1.2, Life: 7200},
	}
}

// setupNestPair builds a serial nest and a distributed nest over the same
// region of the same model state.
func setupNestPair(t *testing.T, procs geom.Rect) (*Model, *Nest, *ParallelNest, geom.Grid) {
	t.Helper()
	cfg := DefaultConfig()
	return setupNestPairFlow(t, procs, cfg.FlowU, cfg.FlowV)
}

// setupNestPairFlow is setupNestPair under an ambient flow of (flowU, flowV)
// grid points per second.
func setupNestPairFlow(t *testing.T, procs geom.Rect, flowU, flowV float64) (*Model, *Nest, *ParallelNest, geom.Grid) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NX, cfg.NY = 96, 72
	cfg.SpawnRate = 0
	cfg.FlowU, cfg.FlowV = flowU, flowV
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range testCells() {
		if err := m.InjectCell(c); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 15; i++ {
		m.Step()
	}
	region := geom.NewRect(12, 10, 24, 20) // fine 72x60
	serial, err := m.SpawnNest(1, region)
	if err != nil {
		t.Fatal(err)
	}
	pg := geom.NewGrid(8, 6)
	par, err := m.NewParallelNest(1, region, pg, procs)
	if err != nil {
		t.Fatal(err)
	}
	return m, serial, par, pg
}

func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestParallelNestMatchesSerial(t *testing.T) {
	for _, procs := range []geom.Rect{
		geom.NewRect(0, 0, 1, 1), // single rank
		geom.NewRect(0, 0, 4, 3),
		geom.NewRect(2, 1, 5, 4), // offset sub-grid
		geom.NewRect(0, 0, 8, 6), // the whole grid
	} {
		m, serial, par, pg := setupNestPair(t, procs)
		w := parallelWorld(t, pg.Size())
		for i := 0; i < 8; i++ {
			m.Step()
			serial.Step(m)
			if err := par.Step(w, m.Config(), m.Cells()); err != nil {
				t.Fatalf("procs %v: %v", procs, err)
			}
		}
		if par.StepCount() != serial.StepCount() {
			t.Fatalf("substep counts differ: %d vs %d", par.StepCount(), serial.StepCount())
		}
		sameSamples(t, fmt.Sprintf("procs %v: distributed vs serial", procs), par.Gather().Data, serial.QCloud().Data)
	}
}

func TestParallelNestRedistributeMidRun(t *testing.T) {
	// The paper's full runtime story: step distributed, reallocate to a
	// different sub-grid with one Alltoallv, keep stepping — and stay
	// bit-identical to a serial nest that never moved.
	m, serial, par, pg := setupNestPair(t, geom.NewRect(0, 0, 4, 3))
	w := parallelWorld(t, pg.Size())
	for i := 0; i < 4; i++ {
		m.Step()
		serial.Step(m)
		if err := par.Step(w, m.Config(), m.Cells()); err != nil {
			t.Fatal(err)
		}
	}
	elapsed, err := par.Redistribute(w, geom.NewRect(4, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatal("redistribution to a disjoint sub-grid cost nothing")
	}
	if par.Procs() != geom.NewRect(4, 2, 3, 4) {
		t.Fatalf("sub-grid not updated: %v", par.Procs())
	}
	for i := 0; i < 4; i++ {
		m.Step()
		serial.Step(m)
		if err := par.Step(w, m.Config(), m.Cells()); err != nil {
			t.Fatal(err)
		}
	}
	sameSamples(t, "post-redistribution distributed vs serial", par.Gather().Data, serial.QCloud().Data)
}

func TestParallelNestRedistributeOverlapCheaper(t *testing.T) {
	// Diffusion's whole point, measured on the executed nest exchange: an
	// anchored grow beats a disjoint move.
	_, _, parGrow, pg := setupNestPair(t, geom.NewRect(0, 0, 4, 3))
	w := parallelWorld(t, pg.Size())
	tGrow, err := parGrow.Redistribute(w, geom.NewRect(0, 0, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	_, _, parFar, _ := setupNestPair(t, geom.NewRect(0, 0, 4, 3))
	tFar, err := parFar.Redistribute(w, geom.NewRect(4, 3, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if tGrow >= tFar {
		t.Fatalf("anchored grow (%g) not cheaper than disjoint move (%g)", tGrow, tFar)
	}
}

func TestParallelNestValidation(t *testing.T) {
	m, _, par, pg := setupNestPair(t, geom.NewRect(0, 0, 4, 3))
	// Region/processor validation on creation.
	if _, err := m.NewParallelNest(2, geom.Rect{}, pg, geom.NewRect(0, 0, 2, 2)); err == nil {
		t.Error("empty region accepted")
	}
	if _, err := m.NewParallelNest(2, geom.NewRect(0, 0, 10, 10), pg, geom.NewRect(7, 5, 4, 4)); err == nil {
		t.Error("out-of-grid sub-rectangle accepted")
	}
	// Too many ranks for the fine extents (blocks below halo width).
	if _, err := m.NewParallelNest(2, geom.NewRect(0, 0, 2, 2), pg, geom.NewRect(0, 0, 8, 6)); err == nil {
		t.Error("sub-halo blocks accepted")
	}
	// World size mismatch.
	wrong := parallelWorld(t, 12)
	if err := par.Step(wrong, m.Config(), nil); err == nil {
		t.Error("world size mismatch accepted by Step")
	}
	if _, err := par.Redistribute(wrong, geom.NewRect(0, 0, 2, 2)); err == nil {
		t.Error("world size mismatch accepted by Redistribute")
	}
	w := parallelWorld(t, pg.Size())
	if _, err := par.Redistribute(w, geom.Rect{}); err == nil {
		t.Error("empty new sub-rectangle accepted")
	}
	// A decomposition whose blocks fall below the halo width: a tiny nest
	// spread over many ranks.
	tiny, err := m.NewParallelNest(3, geom.NewRect(0, 0, 4, 4), pg, geom.NewRect(0, 0, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tiny.Redistribute(w, geom.NewRect(0, 0, 8, 6)); err == nil {
		t.Error("sub-halo new decomposition accepted")
	}
}

func TestParallelNestIdentityRedistributionIsFree(t *testing.T) {
	_, _, par, pg := setupNestPair(t, geom.NewRect(1, 1, 4, 3))
	w := parallelWorld(t, pg.Size())
	before := par.Gather()
	elapsed, err := par.Redistribute(w, geom.NewRect(1, 1, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 0 {
		t.Fatalf("identity redistribution cost %g", elapsed)
	}
	if d := maxAbsDiff(par.Gather().Data, before.Data); d != 0 {
		t.Fatal("identity redistribution corrupted data")
	}
}
