package wrfsim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"nestdiff/internal/faults"
	"nestdiff/internal/geom"
)

// reachDisplacements are the per-step displacements, in cells, the reach
// rule is tabulated over: both signs, whole and fractional cells, zero, and
// the largest reaches the 2-cell halo carries.
var reachDisplacements = []float64{-1.5, -1, -0.24, 0, 0.06, 0.99, 1, 1.7}

// signFlows is one displacement per sign combination of the two axes
// (zero included), drawn from reachDisplacements.
var signFlows = [][2]float64{
	{1.7, 0.99}, {1.7, 0}, {1.7, -0.24},
	{0, 0.06}, {0, 0}, {0, -1},
	{-1.5, 1}, {-0.24, 0}, {-1.5, -1.5},
}

// TestHaloPlanReachRule pins reachOf: the low-side and high-side reach per
// displacement, and the displacements a HaloWidth-cell halo cannot carry.
func TestHaloPlanReachRule(t *testing.T) {
	for _, tc := range []struct {
		u      float64
		lo, hi int
	}{
		{-1.5, 0, 2}, {-1, 0, 2}, {-0.24, 0, 1}, {0, 0, 1},
		{0.06, 1, 0}, {0.99, 1, 0}, {1, 1, 0}, {1.7, 2, 0}, {2, 2, 0},
	} {
		if r, err := reachOf(tc.u); err != nil || r != (axisReach{tc.lo, tc.hi}) {
			t.Errorf("reachOf(%g) = %+v, %v; want {%d %d}", tc.u, r, err, tc.lo, tc.hi)
		}
	}
	for _, u := range []float64{2.5, 2.0000001, -2, -3.2, math.Inf(1), math.Inf(-1), math.NaN()} {
		if r, err := reachOf(u); err == nil {
			t.Errorf("reachOf(%g) = %+v accepted by a %d-cell halo", u, r, HaloWidth)
		}
	}
}

// planSet is every rank's plan of one decomposition under one displacement.
type planSet struct {
	what  string // named in every failure
	pg    geom.Grid
	dist  geom.BlockDist
	plans map[int]*haloPlan // by world rank
}

func buildPlanSet(what string, pg geom.Grid, dist geom.BlockDist, ux, vy float64) planSet {
	ps := planSet{what: what, pg: pg, dist: dist, plans: map[int]*haloPlan{}}
	dist.Blocks(func(p geom.Point, _ geom.Rect) {
		hp := new(haloPlan)
		hp.reset(pg, dist, p, ux, vy)
		ps.plans[pg.Rank(p)] = hp
	})
	return ps
}

// check verifies the plans against each other and against their blocks:
// every send link has exactly one receive link at its peer with the same
// tag and strip, and the other way round; every sent strip is a non-empty
// part of its block; every received strip is a non-empty part of its
// sender's block, outside the receiver's and clear of every other
// received strip.
func (ps planSet) fatalf(t *testing.T, format string, args ...any) {
	t.Helper()
	t.Fatalf(ps.what+": "+format, args...)
}

func (ps planSet) check(t *testing.T) {
	t.Helper()
	matches := func(links []haloLink, peer int, l haloLink) int {
		n := 0
		for _, back := range links {
			if back.peer == peer && back.tag == l.tag && back.rect == l.rect {
				n++
			}
		}
		return n
	}
	for rank, hp := range ps.plans {
		blk := ps.dist.BlockOf(ps.pg.Coord(rank))
		for _, l := range hp.sends {
			if l.rect.Empty() || !blk.ContainsRect(l.rect) {
				ps.fatalf(t, "rank %d sends %v to %d, outside block %v", rank, l.rect, l.peer, blk)
			}
			peer, ok := ps.plans[l.peer]
			if !ok || matches(peer.recvs, rank, l) != 1 {
				ps.fatalf(t, "rank %d send %+v: peer %d holds no single matching receive", rank, l, l.peer)
			}
		}
		for i, l := range hp.recvs {
			from := ps.dist.BlockOf(ps.pg.Coord(l.peer))
			if l.rect.Empty() || !from.ContainsRect(l.rect) || !l.rect.Intersect(blk).Empty() {
				ps.fatalf(t, "rank %d (block %v) receives %v from %d, outside its block %v", rank, blk, l.rect, l.peer, from)
			}
			for _, other := range hp.recvs[:i] {
				if !l.rect.Intersect(other.rect).Empty() {
					ps.fatalf(t, "rank %d: received strips %v and %v overlap", rank, l.rect, other.rect)
				}
			}
			peer, ok := ps.plans[l.peer]
			if !ok || matches(peer.sends, rank, l) != 1 {
				ps.fatalf(t, "rank %d receive %+v: peer %d holds no single matching send", rank, l, l.peer)
			}
		}
	}
}

// checkCoversReads recomputes, sample by sample, which cells outside its own
// window each rank's advection evaluates — the two source indices per axis
// of the reference formula in field.AdvectSpec — and requires the received
// strips to cover exactly those (of them, the ones inside the domain: past
// its edge there is no cell). The rank reads those cells in place, so a
// cell the plan missed would be read without waiting for its owner.
func (ps planSet) checkCoversReads(t *testing.T, ux, vy float64) {
	t.Helper()
	nx, ny := ps.dist.NX, ps.dist.NY
	reads := func(first, last, n int, u float64) (lo, hi int) {
		lo, hi = first, last
		for x := first; x <= last; x++ {
			g := math.Floor(clampF(float64(x)-u, 0, float64(n-1)))
			lo, hi = min(lo, int(g)), max(hi, int(g)+1)
		}
		return lo, min(hi, n-1)
	}
	for rank, hp := range ps.plans {
		blk := ps.dist.BlockOf(ps.pg.Coord(rank))
		x0, x1 := reads(blk.X0, blk.X1-1, nx, ux)
		y0, y1 := reads(blk.Y0, blk.Y1-1, ny, vy)
		// The kernel reads the product of the two index ranges.
		read := geom.Rect{X0: x0, Y0: y0, X1: x1 + 1, Y1: y1 + 1}
		covered := 0
		for _, l := range hp.recvs {
			if !read.ContainsRect(l.rect) {
				ps.fatalf(t, "rank %d block %v: receives %v but reads only %v", rank, blk, l.rect, read)
			}
			covered += l.rect.Area()
		}
		// Received strips are disjoint and outside the block (check), so
		// matching areas means the cover is exact.
		if want := read.Area() - blk.Area(); covered != want {
			ps.fatalf(t, "rank %d block %v: reads %v, %d cells outside the block, receives %d",
				rank, blk, read, want, covered)
		}
	}
}

// checkNestScratch verifies the nest's step state against its current
// decomposition: NestRatio+1 distinct nest-wide ring buffers, and every
// owner rank's share holding its block and, after the first step on it, a
// consistent plan set built for this decomposition. Before that step a
// share may still hold the plan of an earlier one (shares keep their plans
// across Redistribute and between nests), and the first step re-plans it.
func checkNestScratch(t *testing.T, n *Nest, stepped bool) {
	t.Helper()
	if len(n.ring) != NestRatio+1 {
		t.Fatalf("a placed nest turns %d ring buffers, want %d", len(n.ring), NestRatio+1)
	}
	for i, f := range n.ring {
		if f == nil || f.NX != n.nx || f.NY != n.ny || len(f.Data) != n.nx*n.ny {
			t.Fatalf("ring buffer %d is %+v, want %dx%d", i, f, n.nx, n.ny)
		}
		for _, g := range n.ring[:i] {
			if &g.Data[0] == &f.Data[0] {
				t.Fatalf("ring buffer %d shares its samples with another", i)
			}
		}
	}
	ps := planSet{what: fmt.Sprintf("nest %d on %v", n.ID, n.procs), pg: n.pg, dist: geom.NewBlockDist(n.nx, n.ny, n.procs), plans: map[int]*haloPlan{}}
	for rank, st := range n.local {
		p := n.pg.Coord(rank)
		if !n.procs.Contains(p) {
			if st != nil {
				t.Fatalf("rank %d outside %v holds nest state", rank, n.procs)
			}
			continue
		}
		blk := ps.dist.BlockOf(p)
		if st == nil || st.block != blk {
			t.Fatalf("rank %d: state %+v, want block %v", rank, st, blk)
		}
		if !stepped {
			continue
		}
		if hp := st.halo; hp.pg != n.pg || hp.dist != ps.dist || hp.me != p {
			t.Fatalf("rank %d steps on the plan of %v in %v on %v, want %v in %v on %v",
				rank, hp.me, hp.dist, hp.pg, p, ps.dist, n.pg)
		}
		ps.plans[rank] = &st.halo
	}
	if stepped {
		ps.check(t)
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func sameSamples(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: sample %d differs: %.17g vs %.17g", what, i, got[i], want[i])
		}
	}
}

// TestHaloPlanFollowsTheDecomposition: the plan follows the blocks and the
// stencil reach of the flow. Over every pair of tabulated displacements and
// decompositions that are 1 wide, 1 tall, ragged, and exactly HaloWidth
// wide, the plans of a decomposition mirror each other, stay inside their
// blocks, and cover exactly the cells the kernel reads; and for every sign
// combination a distributed nest — across Redistributes onto ragged
// blocks, one row and the whole grid, and a restore — stays on the serial
// nest's trajectory bit for bit: each rank computes its window's samples
// with the serial nest's arithmetic, reading the neighbours' windows in
// place.
func TestHaloPlanFollowsTheDecomposition(t *testing.T) {
	pg := geom.NewGrid(8, 6)
	t.Run("links", func(t *testing.T) {
		for _, dc := range []struct {
			name   string
			nx, ny int
			procs  geom.Rect
		}{
			{"1xN", 40, 31, geom.NewRect(2, 1, 1, 5)},
			{"Nx1", 40, 31, geom.NewRect(1, 2, 6, 1)},
			{"ragged", 40, 31, geom.NewRect(1, 1, 7, 4)}, // 40 columns over 7 ranks, 31 rows over 4
			{"halo-wide", 10, 6, geom.NewRect(3, 2, 5, 3)},
			{"single", 40, 31, geom.NewRect(3, 3, 1, 1)},
		} {
			dist := geom.NewBlockDist(dc.nx, dc.ny, dc.procs)
			for _, ux := range reachDisplacements {
				for _, vy := range reachDisplacements {
					ps := buildPlanSet(fmt.Sprintf("%s under (%g, %g)", dc.name, ux, vy), pg, dist, ux, vy)
					ps.check(t)
					ps.checkCoversReads(t, ux, vy)
				}
			}
		}
		// The headline case: under the default flow a rank with all 8
		// neighbours receives from the west, the north and the north-west
		// and sends the other way, one cell deep.
		dist := geom.NewBlockDist(72, 60, geom.NewRect(0, 0, 4, 3))
		var hp haloPlan
		hp.reset(pg, dist, geom.Point{X: 1, Y: 1}, 0.24, 0.06)
		var from, to []geom.Point
		for _, l := range hp.recvs {
			from = append(from, pg.Coord(l.peer))
		}
		for _, l := range hp.sends {
			to = append(to, pg.Coord(l.peer))
		}
		if fmt.Sprint(from) != "[{0 0} {1 0} {0 1}]" || fmt.Sprint(to) != "[{2 1} {1 2} {2 2}]" {
			t.Fatalf("rank (1,1) under (0.24, 0.06) receives from %v and sends to %v", from, to)
		}
	})

	t.Run("nest", func(t *testing.T) {
		cfg := DefaultConfig()
		for _, d := range signFlows {
			m, serial, par, _ := setupNestPairFlow(t, geom.NewRect(0, 0, 4, 3), d[0]/cfg.Dt, d[1]/cfg.Dt)
			w := parallelWorld(t, pg.Size())
			nests := []*Nest{par}
			step := func(k int) {
				t.Helper()
				for i := 0; i < k; i++ {
					m.Step()
					serial.Step(m)
					if err := StepNests(w, m.Config(), m.Cells(), nests); err != nil {
						t.Fatalf("flow %v: %v", d, err)
					}
				}
				for _, n := range nests {
					checkNestScratch(t, n, true)
					sameSamples(t, fmt.Sprintf("flow %v on %v vs serial", d, n.procs), n.QCloud().Data, serial.QCloud().Data)
				}
			}
			checkNestScratch(t, par, false)
			step(7)
			if _, err := par.Redistribute(w, geom.NewRect(1, 1, 7, 5)); err != nil { // ragged blocks
				t.Fatal(err)
			}
			checkNestScratch(t, par, false)
			step(7)
			// A restore onto the sub-rectangle the live nest moves to next:
			// both build their plans there lazily, from the flow alone.
			restored, err := restorePlaced(par.ID, par.Region, pg, geom.NewRect(2, 4, 5, 1), par.QCloud().Clone(), par.StepCount())
			if err != nil {
				t.Fatal(err)
			}
			checkNestScratch(t, restored, false)
			if _, err := par.Redistribute(w, geom.NewRect(2, 4, 5, 1)); err != nil { // 1 tall
				t.Fatal(err)
			}
			// Same sub-rectangle, so the owner table steps them one dispatch each.
			nests = append(nests, restored)
			step(7)
			for _, n := range nests { // every rank an owner
				if _, err := n.Redistribute(w, pg.Bounds()); err != nil {
					t.Fatal(err)
				}
				checkNestScratch(t, n, false)
			}
			step(7)
		}
	})
}

// TestHaloPlanRejectsFlowBeyondTheHalo: a displacement whose stencil reach
// exceeds HaloWidth is an error wherever the flow is first known — never a
// distributed field that quietly left the serial trajectory.
func TestHaloPlanRejectsFlowBeyondTheHalo(t *testing.T) {
	pg := geom.NewGrid(8, 6)
	wantErr := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted a reach beyond the halo", what)
		}
		for _, part := range []string{"reaches 3 cells", fmt.Sprintf("%d-cell halo", HaloWidth)} {
			if !strings.Contains(err.Error(), part) {
				t.Fatalf("%s: error %q does not name %q", what, err, part)
			}
		}
	}
	for _, d := range [][2]float64{{2.5, 0.06}, {0.24, -2}} {
		cfg := DefaultConfig()
		cfg.NX, cfg.NY = 96, 72
		cfg.SpawnRate = 0
		// A restored nest sees no Config until it steps.
		_, _, par, _ := setupNestPair(t, geom.NewRect(0, 0, 4, 3))
		restored, err := restorePlaced(par.ID, par.Region, pg, par.Procs(), par.QCloud().Clone(), par.StepCount())
		if err != nil {
			t.Fatal(err)
		}
		before := restored.QCloud().Clone()

		cfg.FlowU, cfg.FlowV = d[0]/cfg.Dt, d[1]/cfg.Dt
		m, err := NewModel(cfg) // the serial model clamps inside one field: any flow is fine
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.NewParallelNest(1, geom.NewRect(12, 10, 24, 20), pg, geom.NewRect(0, 0, 4, 3))
		wantErr("NewParallelNest", err)
		wantErr("StepNests", StepNests(parallelWorld(t, pg.Size()), cfg, nil, []*Nest{restored}))
		if restored.StepCount() != par.StepCount() {
			t.Fatalf("refused step advanced the nest to substep %d", restored.StepCount())
		}
		sameSamples(t, "refused step", restored.QCloud().Data, before.Data)
	}
	// The longest reaches the halo carries are accepted.
	cfg := DefaultConfig()
	cfg.NX, cfg.NY = 96, 72
	cfg.SpawnRate = 0
	cfg.FlowU, cfg.FlowV = 2/cfg.Dt, -1.9/cfg.Dt
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := placeNest(m, 1, geom.NewRect(12, 10, 24, 20), pg, geom.NewRect(0, 0, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := StepNests(parallelWorld(t, pg.Size()), cfg, m.Cells(), []*Nest{n}); err != nil {
		t.Fatal(err)
	}
}

// TestStepNestsDroppedHaloMessage is the fault drill on a live link: losing
// the first message of a (from, to) pair taken from a receive link times the
// receiver out and fails the step, while the same rule on the reverse,
// downwind pair — a message the reach-driven plan no longer sends — fires
// nothing and changes nothing. The second half is what keeps a drill
// written against the wrong pair from passing vacuously.
func TestStepNestsDroppedHaloMessage(t *testing.T) {
	m, _, par, pg := setupNestPair(t, geom.NewRect(0, 0, 4, 3))
	clean, err := placeNest(m, par.ID, par.Region, pg, par.Procs()) // par's twin, on a world of its own
	if err != nil {
		t.Fatal(err)
	}
	w, wClean := parallelWorld(t, pg.Size()), parallelWorld(t, pg.Size())
	m.Step()
	if err := StepNests(w, m.Config(), m.Cells(), []*Nest{par}); err != nil {
		t.Fatal(err)
	}
	if err := StepNests(wClean, m.Config(), m.Cells(), []*Nest{clean}); err != nil {
		t.Fatal(err)
	}
	// A receive link of a rank in the middle of the sub-rectangle: from its
	// upwind neighbour to it.
	to := pg.Rank(geom.Point{X: 1, Y: 1})
	links := par.local[to].halo.recvs
	if len(links) == 0 {
		t.Fatal("an interior rank receives nothing")
	}
	from := links[0].peer
	for _, l := range par.local[from].halo.recvs {
		if l.peer == to {
			t.Fatalf("ranks %d and %d trade strips both ways: no downwind pair to drill", from, to)
		}
	}

	downwind := faults.NewPlan(1).DropMessage(to, from, faults.Wildcard, 1).WithRecvTimeout(100 * time.Millisecond)
	w.SetFaults(downwind)
	m.Step()
	if err := StepNests(w, m.Config(), m.Cells(), []*Nest{par}); err != nil {
		t.Fatalf("a drop rule on the downwind pair %d -> %d failed the step: %v", to, from, err)
	}
	if err := StepNests(wClean, m.Config(), m.Cells(), []*Nest{clean}); err != nil {
		t.Fatal(err)
	}
	if inj := downwind.Injections(); len(inj) != 0 {
		t.Fatalf("downwind pair %d -> %d carried a message: %+v", to, from, inj)
	}
	sameNestFields(t, "downwind drop rule", []*Nest{par}, []*Nest{clean})

	live := faults.NewPlan(1).DropMessage(from, to, faults.Wildcard, 1).WithRecvTimeout(100 * time.Millisecond)
	w.SetFaults(live)
	m.Step()
	done := make(chan error, 1)
	go func() { done <- StepNests(w, m.Config(), m.Cells(), []*Nest{par}) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "timed out") {
			t.Fatalf("step returned %v, want a receive timeout", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("step hung on the dropped halo message")
	}
	// The sender runs its substeps back to back, so it may have opened (and
	// lost the first message of) a later substep's stream as well.
	inj := live.Injections()
	if len(inj) == 0 {
		t.Fatal("no message was dropped")
	}
	for _, in := range inj {
		if in.Kind != faults.KindMessageDrop || in.From != from || in.To != to {
			t.Fatalf("injection log %+v", inj)
		}
	}
}
