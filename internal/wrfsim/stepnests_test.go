package wrfsim

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"nestdiff/internal/faults"
	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
)

// twoNests spawns nests 1 and 2 of the setupNestPair model over the given
// processor sub-rectangles of its 8x6 grid.
func twoNests(t testing.TB, m *Model, pg geom.Grid, procsA, procsB geom.Rect) []*Nest {
	t.Helper()
	a, err := placeNest(m, 1, geom.NewRect(12, 10, 24, 20), pg, procsA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := placeNest(m, 2, geom.NewRect(60, 40, 21, 17), pg, procsB)
	if err != nil {
		t.Fatal(err)
	}
	return []*Nest{a, b}
}

func sameNestFields(t *testing.T, what string, got, want []*Nest) {
	t.Helper()
	for i := range want {
		if got[i].StepCount() != want[i].StepCount() {
			t.Fatalf("%s: nest %d at substep %d, want %d", what, want[i].ID, got[i].StepCount(), want[i].StepCount())
		}
		g, w := got[i].QCloud(), want[i].QCloud()
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
				if err := StepNests(we, m.Config(), m.Cells(), []*Nest{n}); err != nil {
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
	if err := StepNests(parallelWorld(t, 12), m.Config(), nil, []*Nest{par}); err == nil {
		t.Fatal("world size mismatch accepted")
	}
}

// TestStepNestsAmortisedAllocations: a steady-state dispatch allocates
// nothing — the rank workers are parked, the owner table, rank list and
// rank function are pooled, the stamps, halo plans and column tables are
// reused, and every strip is read in place out of the upwind neighbour's
// window of the nest's ring of substep buffers. Every rank here reads up
// to 3 strips and publishes for up to 3 readers in each of 3 substeps, so
// a per-strip allocation would show up as tens per rank. The first
// dispatch after a Redistribute re-plans each owner rank on the slices of
// the share it kept or drew from the pool, so once the shares have seen
// both decompositions it allocates nothing either.
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
	for i := 0; i < 3; i++ { // start the workers, fill the mailbox slots
		run()
	}
	const ranks = 4*3 + 3*4
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("%.0f allocations per dispatch of %d ranks", allocs, ranks)
	if allocs != 0 {
		t.Errorf("%.0f allocations per steady dispatch of %d ranks, want 0", allocs, ranks)
	}

	// Nest 1 alternates between two overlapping sub-rectangles; the first
	// round trips warm the shares on both.
	procs := []geom.Rect{geom.NewRect(0, 0, 4, 2), geom.NewRect(0, 0, 4, 3)}
	hop := func(i int) {
		if _, err := nests[0].Redistribute(w, procs[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		hop(i)
		run()
	}
	const hops = 10
	var total uint64
	var before, after runtime.MemStats
	for i := 0; i < hops; i++ {
		hop(i)
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	// A share rebuilt from nothing costs about a dozen allocations, so the
	// bound leaves room for a GC that empties the share pool once or twice;
	// rebuilding every owner rank's scratch from nothing costs about 180
	// per dispatch here.
	t.Logf("%d allocations over %d dispatches right after a Redistribute", total, hops)
	if total > 3*hops {
		t.Errorf("%d allocations over %d dispatches right after a Redistribute, want at most %d", total, hops, 3*hops)
	}
}

// TestRedistributeChainMatchesRestore: a nest moved A -> B -> A -> C over
// overlapping sub-rectangles holds, after every hop, exactly the field it
// held before, and then steps 5 parent steps bit-identically to a nest
// rebuilt on the new sub-rectangle with RestoreNest and Place from that
// field. Both run on recycled rank shares: each hop's twin is released
// afterwards, so the next twin, and the ranks the live nest gains, draw
// shares whose buffers still hold another block's samples.
func TestRedistributeChainMatchesRestore(t *testing.T) {
	a, b, c := geom.NewRect(0, 0, 4, 3), geom.NewRect(2, 1, 5, 4), geom.NewRect(1, 1, 7, 5)
	m, _, par, pg := setupNestPair(t, a)
	w, wTwin := parallelWorld(t, pg.Size()), parallelWorld(t, pg.Size())
	step := func(w *mpi.World, n *Nest) {
		t.Helper()
		if err := StepNests(w, m.Config(), m.Cells(), []*Nest{n}); err != nil {
			t.Fatal(err)
		}
	}
	m.Step()
	step(w, par)
	for hop, procs := range []geom.Rect{b, a, c} {
		before := par.QCloud().Clone()
		if _, err := par.Redistribute(w, procs); err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("hop %d to %v", hop, procs)
		requireSameBits(t, what+": gathered field", par.QCloud(), before)
		twin, err := restorePlaced(par.ID, par.Region, pg, procs, before, par.StepCount())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			m.Step()
			step(w, par)
			step(wTwin, twin)
			requireSameBits(t, fmt.Sprintf("%s, step %d", what, i+1), par.QCloud(), twin.QCloud())
		}
		twin.Release()
	}
}

// TestReleasedShareOnAnotherGridReplans: a nest built on a process grid of
// another shape draws the rank shares a released nest gave back, with the
// same fine extents, sub-rectangle and block points, so every recycled
// plan matches its new decomposition point for point. Its peers are
// numbered by the other grid, though, and the plan must be rebuilt: the
// nest then steps bit for bit like the serial nest (a stale plan would
// wait on the old grid's rank numbers: on a rank that publishes none, or
// on the wrong neighbour, and read a window before its owner wrote it).
func TestReleasedShareOnAnotherGridReplans(t *testing.T) {
	procs := geom.NewRect(0, 0, 4, 3)
	m, _, old, pg := setupNestPair(t, procs)
	w := parallelWorld(t, pg.Size())
	m.Step()
	if err := StepNests(w, m.Config(), m.Cells(), []*Nest{old}); err != nil {
		t.Fatal(err)
	}
	old.Release()
	if err := StepNests(w, m.Config(), m.Cells(), []*Nest{old}); err == nil {
		t.Fatal("a released nest stepped")
	}

	other := geom.NewGrid(pg.Py, pg.Px)
	serial, err := m.SpawnNest(2, old.Region)
	if err != nil {
		t.Fatal(err)
	}
	par, err := placeNest(m, 2, old.Region, other, procs)
	if err != nil {
		t.Fatal(err)
	}
	wOther := parallelWorld(t, other.Size())
	wOther.SetFaults(faults.NewPlan(1).WithRecvTimeout(time.Second))
	for i := 0; i < 4; i++ {
		m.Step()
		serial.Step(m)
		if err := StepNests(wOther, m.Config(), m.Cells(), []*Nest{par}); err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
		sameSamples(t, fmt.Sprintf("step %d: distributed vs serial", i+1), par.QCloud().Data, serial.QCloud().Data)
	}
	checkNestScratch(t, par, true)
}

// TestStepNestsClocksFrozen pins the virtual clocks and the fields of
// BenchmarkStepNests' layout over 4 parent steps, with and without a
// delay rule on one live halo link: a digest of every owner rank's clock
// bits at the end of each dispatch, and a CRC of each nest's gathered
// field. The halo exchange may change how strips travel, but neither what
// a rank computes nor what its clock reads. The field CRCs are also those
// of serial nests stepped beside the distributed ones, so the pin is an
// oracle: a distributed nest holds the serial nest's bits.
func TestStepNestsClocksFrozen(t *testing.T) {
	for _, tc := range []struct {
		name   string
		delay  bool
		clocks uint64
		last   float64 // the latest owner clock of the last dispatch
		fields [3]uint32
	}{
		{"clean", false, 0x3ebdc48c74c20a05, 1.4195714285714286e-05, [3]uint32{0xa27fd405, 0x6ec8d770, 0xe3a6188b}},
		{"delayed-link", true, 0xd4a904911560e3c5, 0.0020135578571428567, [3]uint32{0xa27fd405, 0x6ec8d770, 0xe3a6188b}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, w, nests := stepNestsLayout(t)
			serial := make([]*Nest, len(nests))
			for i, n := range nests {
				sn, err := m.SpawnNest(n.ID, n.Region)
				if err != nil {
					t.Fatal(err)
				}
				serial[i] = sn
			}
			if tc.delay {
				// A receive link of a rank inside nest 1, from its upwind
				// neighbour to it: every message on it is delayed by 2 ms.
				n, me := nests[0], geom.Point{X: 3, Y: 4}
				spec := nestAdvectSpec(m.Config())
				var hp haloPlan
				hp.reset(n.pg, geom.NewBlockDist(n.nx, n.ny, n.procs), me, spec.UX, spec.VY)
				to := n.pg.Rank(me)
				from := hp.recvs
				w.SetFaults(faults.NewPlan(1).DelayMessage(from[0].peer, to, faults.Wildcard, 1, 2e-3))
			}
			h := fnv.New64a()
			var last float64
			for step := 0; step < 4; step++ {
				m.Step()
				for _, sn := range serial {
					sn.Step(m)
				}
				if err := StepNests(w, m.Config(), m.Cells(), nests); err != nil {
					t.Fatal(err)
				}
				last = 0
				for _, n := range nests {
					for rank, st := range n.local {
						if st == nil {
							continue
						}
						c := w.Clock(rank)
						last = max(last, c)
						binary.Write(h, binary.LittleEndian, [2]uint64{uint64(rank), math.Float64bits(c)})
					}
				}
			}
			crcOf := func(data []float64) uint32 {
				crc := crc32.NewIEEE()
				binary.Write(crc, binary.LittleEndian, data)
				return crc.Sum32()
			}
			var fields, serialFields [3]uint32
			for i, n := range nests {
				fields[i] = crcOf(n.QCloud().Data)
				serialFields[i] = crcOf(serial[i].QCloud().Data)
			}
			if got := h.Sum64(); got != tc.clocks || last != tc.last {
				t.Errorf("owner clocks digest %#x, latest %v; want %#x, %v", got, last, tc.clocks, tc.last)
			}
			if fields != tc.fields || serialFields != tc.fields {
				t.Errorf("nest field CRCs %#x, serial nests' %#x; want %#x", fields, serialFields, tc.fields)
			}
		})
	}
}

// TestStepNestsCrashedOwnerWakesParkedReaders: an injected crash of an
// owner rank on the upwind side of a multi-rank nest fails the step with
// the crash, while the downwind ranks that wait on its strips wake and
// unwind instead of staying parked.
func TestStepNestsCrashedOwnerWakesParkedReaders(t *testing.T) {
	m, _, par, pg := setupNestPair(t, geom.NewRect(0, 0, 4, 3))
	w := parallelWorld(t, pg.Size())
	m.Step()
	if err := StepNests(w, m.Config(), m.Cells(), []*Nest{par}); err != nil {
		t.Fatal(err)
	}
	// Under the default flow every other rank of the sub-rectangle reads,
	// directly or through its neighbours, from the corner at (0, 0).
	upwind := pg.Rank(geom.Point{X: 0, Y: 0})
	if len(par.local[upwind].halo.sends) == 0 {
		t.Fatal("the upwind corner sends no strip")
	}
	w.SetFaults(faults.NewPlan(1).CrashRank(0, upwind))
	m.Step()
	done := make(chan error, 1)
	go func() { done <- StepNests(w, m.Config(), m.Cells(), []*Nest{par}) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "injected crash of rank") {
			t.Fatalf("step returned %v, want the injected crash of rank %d", err, upwind)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("step hung on the crashed owner")
	}
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	if strings.Contains(stacks, "wrfsim.(*Nest).stepRank") {
		t.Fatalf("a rank is still inside its step after the dispatch failed:\n%s", stacks)
	}
}
