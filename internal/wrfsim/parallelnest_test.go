package wrfsim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"nestdiff/internal/field"
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
func setupNestPair(t *testing.T, procs geom.Rect) (*Model, *Nest, *Nest, geom.Grid) {
	t.Helper()
	cfg := DefaultConfig()
	return setupNestPairFlow(t, procs, cfg.FlowU, cfg.FlowV)
}

// setupNestPairFlow is setupNestPair under an ambient flow of (flowU, flowV)
// grid points per second.
func setupNestPairFlow(t *testing.T, procs geom.Rect, flowU, flowV float64) (*Model, *Nest, *Nest, geom.Grid) {
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
	par, err := placeNest(m, 1, region, pg, procs)
	if err != nil {
		t.Fatal(err)
	}
	return m, serial, par, pg
}

// placeNest spawns nest id over region of m and places it on procs of pg.
func placeNest(m *Model, id int, region geom.Rect, pg geom.Grid, procs geom.Rect) (*Nest, error) {
	n, err := m.SpawnNest(id, region)
	if err != nil {
		return nil, err
	}
	if err := n.Place(pg, procs); err != nil {
		return nil, err
	}
	return n, nil
}

// restorePlaced restores a nest from its state and places it on procs of pg.
func restorePlaced(id int, region geom.Rect, pg geom.Grid, procs geom.Rect, fine *field.Field, steps int) (*Nest, error) {
	n, err := RestoreNest(id, region, fine, steps)
	if err != nil {
		return nil, err
	}
	if err := n.Place(pg, procs); err != nil {
		return nil, err
	}
	return n, nil
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
			if err := StepNests(w, m.Config(), m.Cells(), []*Nest{par}); err != nil {
				t.Fatalf("procs %v: %v", procs, err)
			}
		}
		if par.StepCount() != serial.StepCount() {
			t.Fatalf("substep counts differ: %d vs %d", par.StepCount(), serial.StepCount())
		}
		sameSamples(t, fmt.Sprintf("procs %v: distributed vs serial", procs), par.QCloud().Data, serial.QCloud().Data)
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
		if err := StepNests(w, m.Config(), m.Cells(), []*Nest{par}); err != nil {
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
		if err := StepNests(w, m.Config(), m.Cells(), []*Nest{par}); err != nil {
			t.Fatal(err)
		}
	}
	sameSamples(t, "post-redistribution distributed vs serial", par.QCloud().Data, serial.QCloud().Data)
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
	if err := StepNests(wrong, m.Config(), nil, []*Nest{par}); err == nil {
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
	tiny, err := placeNest(m, 3, geom.NewRect(0, 0, 4, 4), pg, geom.NewRect(0, 0, 2, 2))
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
	before := par.QCloud().Clone()
	elapsed, err := par.Redistribute(w, geom.NewRect(1, 1, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 0 {
		t.Fatalf("identity redistribution cost %g", elapsed)
	}
	if d := maxAbsDiff(par.QCloud().Data, before.Data); d != 0 {
		t.Fatal("identity redistribution corrupted data")
	}
}

// TestNestPlacementSteps: one nest stepped on the caller, then placed and
// stepped by StepNests, then redistributed and stepped again, and at last
// released and stepped on the caller once more, equals after every step a
// nest that Step stepped all along. The two refused calls — Step on a
// placed nest, StepNests on an unplaced one — return their errors and
// leave the nest as it was.
func TestNestPlacementSteps(t *testing.T) {
	m, ref, _, pg := setupNestPair(t, geom.NewRect(0, 0, 1, 1))
	n, err := m.SpawnNest(ref.ID, ref.Region)
	if err != nil {
		t.Fatal(err)
	}
	w := parallelWorld(t, pg.Size())
	same := func(what string) {
		t.Helper()
		if n.StepCount() != ref.StepCount() {
			t.Fatalf("%s: substep %d, want %d", what, n.StepCount(), ref.StepCount())
		}
		sameSamples(t, what, n.QCloud().Data, ref.QCloud().Data)
	}
	onCaller := func() error { return n.Step(m) }
	onRanks := func() error { return StepNests(w, m.Config(), m.Cells(), []*Nest{n}) }
	steps := func(what string, step func() error) {
		t.Helper()
		for i := 0; i < 3; i++ {
			m.Step()
			if err := ref.Step(m); err != nil {
				t.Fatal(err)
			}
			if err := step(); err != nil {
				t.Fatalf("%s, step %d: %v", what, i+1, err)
			}
			same(fmt.Sprintf("%s, step %d", what, i+1))
		}
	}

	steps("unplaced", onCaller)
	if err := onRanks(); err == nil || !strings.Contains(err.Error(), "not placed") {
		t.Fatalf("StepNests of an unplaced nest returned %v, want a refusal", err)
	}
	same("after the refused StepNests")
	if err := n.Place(pg, geom.NewRect(0, 0, 4, 3)); err != nil {
		t.Fatal(err)
	}
	if err := n.Place(pg, geom.NewRect(0, 0, 4, 3)); err == nil {
		t.Fatal("a placed nest was placed again")
	}
	if err := onCaller(); err == nil || !strings.Contains(err.Error(), "is placed") {
		t.Fatalf("Step of a placed nest returned %v, want a refusal", err)
	}
	same("after the refused Step")
	steps("placed", onRanks)
	if _, err := n.Redistribute(w, geom.NewRect(2, 1, 5, 4)); err != nil {
		t.Fatal(err)
	}
	steps("redistributed", onRanks)
	n.Release()
	if !n.Procs().Empty() {
		t.Fatalf("a released nest is still placed on %v", n.Procs())
	}
	steps("released", onCaller)
}
