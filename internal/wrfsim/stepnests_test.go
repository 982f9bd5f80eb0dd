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

// checkHaloPlans verifies every owner rank's share of the nest against its
// current decomposition: the block; before the first step on it, no step
// scratch at all; after, a double buffer and halo-extended field of the
// block's shape and one link per neighbour inside the sub-rectangle, each
// the mirror image of the link the neighbour holds back.
func checkHaloPlans(t *testing.T, n *ParallelNest, stepped bool) {
	t.Helper()
	dist := geom.NewBlockDist(n.nx, n.ny, n.procs)
	for rank, st := range n.local {
		p := n.pg.Coord(rank)
		if !n.procs.Contains(p) {
			if st != nil {
				t.Fatalf("rank %d outside %v holds nest state", rank, n.procs)
			}
			continue
		}
		blk := dist.BlockOf(p)
		if st == nil || st.block != blk {
			t.Fatalf("rank %d: state %+v, want block %v", rank, st, blk)
		}
		if st.f.NX != blk.Width() || st.f.NY != blk.Height() {
			t.Fatalf("rank %d: field %dx%d for block %v", rank, st.f.NX, st.f.NY, blk)
		}
		// Step scratch appears with the first step on a decomposition and
		// must never be left over from the previous one.
		if !stepped {
			if st.next != nil || st.halo.ext != nil || st.halo.links != nil {
				t.Fatalf("rank %d carries step scratch from an earlier decomposition", rank)
			}
			continue
		}
		if st.next.NX != st.f.NX || st.next.NY != st.f.NY {
			t.Fatalf("rank %d: double buffer %dx%d for block %v", rank, st.next.NX, st.next.NY, blk)
		}
		extBounds := geom.NewRect(0, 0, blk.Width()+2*haloWidth, blk.Height()+2*haloWidth)
		if ext := st.halo.ext; ext.Bounds() != extBounds {
			t.Fatalf("rank %d: ext %dx%d for block %v", rank, ext.NX, ext.NY, blk)
		}
		neighbours := n.procs.Intersect(geom.NewRect(p.X-1, p.Y-1, 3, 3)).Area() - 1
		if len(st.halo.links) != neighbours {
			t.Fatalf("rank %d at %v in %v: %d links, want %d", rank, p, n.procs, len(st.halo.links), neighbours)
		}
		for _, l := range st.halo.links {
			if !st.f.Bounds().ContainsRect(l.send) || !extBounds.ContainsRect(l.recv) || l.send.Empty() {
				t.Fatalf("rank %d link to %d: send %v recv %v outside block %v", rank, l.peer, l.send, l.recv, blk)
			}
			mirrored := false
			for _, back := range n.local[l.peer].halo.links {
				if back.peer == rank && back.sendTag == l.recvTag && back.recvTag == l.sendTag {
					mirrored = back.send.Width() == l.recv.Width() && back.send.Height() == l.recv.Height()
				}
			}
			if !mirrored {
				t.Fatalf("rank %d link to %d has no matching link back", rank, l.peer)
			}
		}
	}
}

// TestHaloPlanFollowsTheDecomposition walks one nest through sub-rectangles
// that do not divide its 72x60 fine grid, a 1-tall and a 1-wide one, and a
// checkpoint restore: after every move the cached plans match the new
// blocks, and stepping on them stays on the serial nest's trajectory.
func TestHaloPlanFollowsTheDecomposition(t *testing.T) {
	m, serial, par, pg := setupNestPair(t, geom.NewRect(0, 0, 4, 3))
	w := parallelWorld(t, pg.Size())
	step := func(n *ParallelNest, k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			m.Step()
			serial.Step(m)
			if err := n.Step(w, m.Config(), m.Cells()); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkHaloPlans(t, par, false)
	step(par, 2)
	checkHaloPlans(t, par, true)
	for _, procs := range []geom.Rect{
		geom.NewRect(1, 1, 7, 5), // 72 columns over 7 ranks: uneven block widths
		geom.NewRect(2, 4, 5, 1), // 1-tall: east/west links only
		geom.NewRect(6, 0, 1, 4), // 1-wide: north/south links only
		geom.NewRect(3, 3, 1, 1), // a single rank: no links at all
		geom.NewRect(0, 0, 5, 4),
	} {
		if _, err := par.Redistribute(w, procs); err != nil {
			t.Fatalf("to %v: %v", procs, err)
		}
		checkHaloPlans(t, par, false)
		step(par, 2)
		checkHaloPlans(t, par, true)
		if d := maxAbsDiff(par.Gather().Data, serial.QCloud().Data); d > 1e-12 {
			t.Fatalf("on %v: nest deviates from serial by %g", procs, d)
		}
	}

	restored, err := RestoreParallelNest(par.ID, par.Region, pg, geom.NewRect(1, 0, 7, 3), par.Gather(), par.StepCount())
	if err != nil {
		t.Fatal(err)
	}
	checkHaloPlans(t, restored, false)
	if _, err := par.Redistribute(w, geom.NewRect(1, 0, 7, 3)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m.Step()
		if err := StepNests(w, m.Config(), m.Cells(), []*ParallelNest{par}); err != nil {
			t.Fatal(err)
		}
		if err := restored.Step(parallelWorld(t, pg.Size()), m.Config(), m.Cells()); err != nil {
			t.Fatal(err)
		}
	}
	checkHaloPlans(t, restored, true)
	sameNestFields(t, "restored", []*ParallelNest{restored}, []*ParallelNest{par})
}

// TestStepNestsAmortisedAllocations: a steady-state dispatch allocates per
// rank it spawns (the goroutine's closure) plus a fixed handful — the
// owner table, the rank list, the Rank array — and nothing per message.
// Every rank here exchanges up to 8 strips in each of 3 substeps, so a
// per-message allocation would show up as tens per rank.
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
