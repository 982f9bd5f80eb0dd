package wrfsim

import (
	"testing"

	"nestdiff/internal/geom"
)

// twoNests spawns nests 1 and 2 of the setupNestPair model over the given
// processor sub-rectangles of its 8x6 grid.
func twoNests(t testing.TB, m *Model, pg geom.Grid, procsA, procsB geom.Rect) []*ParallelNest {
	t.Helper()
	a, err := m.NewParallelNest(1, geom.NewRect(12, 10, 24, 20), pg, procsA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.NewParallelNest(2, geom.NewRect(60, 40, 21, 17), pg, procsB)
	if err != nil {
		t.Fatal(err)
	}
	return []*ParallelNest{a, b}
}

func sameNestFields(t *testing.T, what string, got, want []*ParallelNest) {
	t.Helper()
	for i := range want {
		if got[i].StepCount() != want[i].StepCount() {
			t.Fatalf("%s: nest %d at substep %d, want %d", what, want[i].ID, got[i].StepCount(), want[i].StepCount())
		}
		g, w := got[i].Gather(), want[i].Gather()
		for k := range w.Data {
			if g.Data[k] != w.Data[k] {
				t.Fatalf("%s: nest %d sample %d differs: %g vs %g", what, want[i].ID, k, g.Data[k], w.Data[k])
			}
		}
	}
}

// TestStepNestsMatchesPerNestStep: one fused dispatch over two disjoint
// nests is bit-identical to stepping each nest in a dispatch of its own,
// and so is the one-at-a-time path StepNests takes when the owner table
// finds their sub-rectangles overlapping.
func TestStepNestsMatchesPerNestStep(t *testing.T) {
	for _, tc := range []struct {
		name           string
		procsA, procsB geom.Rect
	}{
		{"disjoint", geom.NewRect(0, 0, 4, 3), geom.NewRect(4, 2, 3, 4)},
		{"overlapping", geom.NewRect(0, 0, 4, 3), geom.NewRect(3, 2, 3, 4)},
	} {
		m, _, _, pg := setupNestPair(t, geom.NewRect(0, 0, 1, 1))
		fused := twoNests(t, m, pg, tc.procsA, tc.procsB)
		each := twoNests(t, m, pg, tc.procsA, tc.procsB)
		wf, we := parallelWorld(t, pg.Size()), parallelWorld(t, pg.Size())
		for i := 0; i < 6; i++ {
			m.Step()
			if err := StepNests(wf, m.Config(), m.Cells(), fused); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for _, n := range each {
				if err := n.Step(we, m.Config(), m.Cells()); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
			}
		}
		if fused[0].StepCount() != 6*NestRatio {
			t.Fatalf("%s: %d substeps after 6 parent steps", tc.name, fused[0].StepCount())
		}
		sameNestFields(t, tc.name, fused, each)
	}
	// No nests, no dispatch; a nest of another grid is refused.
	m, _, par, _ := setupNestPair(t, geom.NewRect(0, 0, 2, 2))
	if err := StepNests(parallelWorld(t, 48), m.Config(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := StepNests(parallelWorld(t, 12), m.Config(), nil, []*ParallelNest{par}); err == nil {
		t.Fatal("world size mismatch accepted")
	}
}

// TestStepNestsAmortisedAllocations: a steady-state dispatch allocates per
// rank it spawns (the goroutine's closure) plus a fixed handful — the
// owner table, the rank list, the Rank array — and nothing per message.
// Every rank here exchanges up to 3 strips each way in each of 3 substeps,
// so a per-message allocation would show up as tens per rank.
func TestStepNestsAmortisedAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	m, _, _, pg := setupNestPair(t, geom.NewRect(0, 0, 1, 1))
	nests := twoNests(t, m, pg, geom.NewRect(0, 0, 4, 3), geom.NewRect(4, 2, 3, 4))
	w := parallelWorld(t, pg.Size())
	cells := m.Cells()
	run := func() {
		if err := StepNests(w, m.Config(), cells, nests); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm the world's payload pool
		run()
	}
	const ranks = 4*3 + 3*4
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("%.0f allocations per dispatch of %d ranks", allocs, ranks)
	if allocs > ranks+16 {
		t.Errorf("%.0f allocations per dispatch of %d ranks, want at most %d", allocs, ranks, ranks+16)
	}
}
