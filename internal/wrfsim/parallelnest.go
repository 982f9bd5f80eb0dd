package wrfsim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
	"nestdiff/internal/obs"
	"nestdiff/internal/redist"
)

// A nest's placement (Nest.Place): StepNests steps placed nests on their
// owner ranks, and Redistribute moves one to another sub-rectangle.

// nestRank is one rank's share of a distributed nest: its window of the
// nest-wide field and the step's plans for it — the halo plan naming the
// upwind neighbours it waits on and the downwind ones it publishes to, and
// the advection plan holding its window's column table — with the
// one-sided publication its downwind neighbours wait on. Shares are
// recycled through rankShares, so a share's plans outlive the
// decomposition, and the nest, they served: a rank that stays an owner
// across Redistribute keeps its share, one that joins draws a share that a
// leaving rank, or a released nest, gave back. The plans are rebuilt by
// the rank's first step on a decomposition and flow, on whatever slices the
// share holds; they carry no state between parent steps and are never
// checkpointed. The halo plan records the process grid, the decomposition,
// the rank and the world it was built for, so it never serves another: a
// share that crosses into a nest on another grid re-plans before its first
// exchange there.
type nestRank struct {
	block  geom.Rect // owned fine cells: the rank's window
	halo   haloPlan
	advect field.AdvectPlan
	// The publication of the step in flight (see exchange): each send
	// link's arrival by direction tag and substep, and the nest substep the
	// rank has published up to, which rises with the nest's step count and
	// starts from zero in a share fresh from the pool.
	arrive [NestRatio][9]arrival
	seq    atomic.Int64
}

// arrival is one send link's modelled arrival for one substep, or its loss
// to an injected fault.
type arrival struct {
	at   float64
	lost bool
}

// rankShares recycles nest rank shares between nests and decompositions,
// so that a rank joining a nest steps on the plan slices of a share that
// has stepped before. Shares enter it through recycle.
var rankShares sharePool

// sharePool is a free list of rank shares. Unlike a sync.Pool, which a
// garbage collection empties, it keeps every share given back, so a share
// drawn after a collection still holds its plans' slices. It holds at most
// as many shares as were ever drawn at once.
type sharePool struct {
	mu   sync.Mutex
	free []*nestRank
}

// get returns the share given back last, or a new one.
func (p *sharePool) get() *nestRank {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return new(nestRank)
	}
	st := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return st
}

func (p *sharePool) put(st *nestRank) {
	p.mu.Lock()
	p.free = append(p.free, st)
	p.mu.Unlock()
}

// recycle returns st to rankShares with its publication counter at zero,
// below any substep of the nest that draws it next, and its plan holding
// no world, so the pool keeps no dropped world reachable.
func (st *nestRank) recycle() {
	st.seq.Store(0)
	st.halo.world = nil
	rankShares.put(st)
}

// exchangeArenas recycles the per-rank Alltoallv arenas of Redistribute,
// one per world rank, between redistributions of every nest.
var exchangeArenas = sync.Pool{New: func() any { return new([]mpi.Scratch) }}

// Release returns a placed nest's rank shares to the pool that later nests
// and redistributions draw theirs from, leaving the nest unplaced: a
// StepNests or Redistribute of it is then an error. On an unplaced nest it
// does nothing.
func (n *Nest) Release() {
	for _, st := range n.local {
		if st != nil {
			st.recycle()
		}
	}
	n.pg, n.procs, n.local, n.staged = geom.Grid{}, geom.Rect{}, nil, nil
}

// SetTracer installs a structured tracer on the nest (nil removes it);
// Redistribute then emits one event per executed exchange.
func (n *Nest) SetTracer(tr *obs.Tracer) { n.tracer = tr }

// Place puts an unplaced nest on the processor sub-rectangle procs of the
// process grid pg: the ring grows to NestRatio+1 buffers, each owner rank
// draws a share for its window of the nest-wide field, and from then on
// StepNests steps the nest.
func (n *Nest) Place(pg geom.Grid, procs geom.Rect) error {
	if n.local != nil {
		return fmt.Errorf("wrfsim: nest %d is already placed on %v", n.ID, n.procs)
	}
	if procs.Empty() || !pg.Bounds().ContainsRect(procs) {
		return fmt.Errorf("wrfsim: invalid processor sub-rectangle %v", procs)
	}
	dist := geom.NewBlockDist(n.nx, n.ny, procs)
	if err := n.checkHalo(dist); err != nil {
		return err
	}
	for len(n.ring) < NestRatio+1 {
		n.ring = append(n.ring, field.New(n.nx, n.ny))
	}
	n.pg, n.procs = pg, procs
	n.local = make([]*nestRank, pg.Size())
	n.staged = make([]*nestRank, pg.Size())
	dist.Blocks(func(p geom.Point, blk geom.Rect) {
		st := rankShares.get()
		st.block = blk
		n.local[pg.Rank(p)] = st
	})
	return nil
}

// checkHalo rejects a decomposition with a block narrower than the halo:
// a rank's reads would reach past its 8 neighbours' windows.
func (n *Nest) checkHalo(dist geom.BlockDist) error {
	var err error
	dist.Blocks(func(_ geom.Point, blk geom.Rect) {
		if err == nil && (blk.Width() < HaloWidth || blk.Height() < HaloWidth) {
			err = fmt.Errorf("wrfsim: nest %d block %v over %v narrower than the %d-cell halo; use fewer ranks",
				n.ID, blk, dist.Procs, HaloWidth)
		}
	})
	return err
}

// Procs returns the current processor sub-rectangle: empty for an
// unplaced nest.
func (n *Nest) Procs() geom.Rect { return n.procs }

// ParallelNest is a nest placed at spawn, as NewParallelNest returns it.
// It exists for the benchmark harness's distributed-step probe
// (cmd/nestbench); everything else places a Nest with Place and steps it
// with StepNests.
type ParallelNest struct{ *Nest }

// NewParallelNest spawns a nest over the given parent region and places it
// on the processor sub-rectangle procs of pg. A flow whose stencil reach
// exceeds the halo is refused here.
func (m *Model) NewParallelNest(id int, region geom.Rect, pg geom.Grid, procs geom.Rect) (*ParallelNest, error) {
	spec := nestAdvectSpec(m.cfg)
	if err := checkReach(spec.UX, spec.VY); err != nil {
		return nil, err
	}
	n, err := m.SpawnNest(id, region)
	if err != nil {
		return nil, err
	}
	if err := n.Place(pg, procs); err != nil {
		return nil, err
	}
	return &ParallelNest{n}, nil
}

// Step advances the nest by one parent step on the world: the one-nest
// case of StepNests. cells must be the parent model's current cell
// population.
func (pn *ParallelNest) Step(w *mpi.World, cfg Config, cells []Cell) error {
	return StepNests(w, cfg, cells, []*Nest{pn.Nest})
}

// StepNests advances every given nest by one parent step — NestRatio fine
// substeps, mirroring the serial Nest physics — in a single dispatch over
// exactly the ranks that own a nest block: "each nested simulation is
// executed on disjoint subsets of the total number of processors", all of
// them at once, and ranks that own nothing are never woken. Each nest's
// source stamps are built once, over its whole fine grid, before the
// dispatch; each rank then adds the part inside its window and runs its
// substeps back to back, and the one-sided halo exchange — each rank
// waits for its upwind neighbours to publish the substep and then reads
// their windows of the nest-wide field in place — is the only
// synchronisation the physics needs. The nests' rings turn once the
// dispatch has returned. A steady dispatch allocates nothing.
//
// A rank runs one share per dispatch, so when the owner table finds one
// rank claimed by two nests whose processor sub-rectangles overlap, the
// nests are stepped one dispatch each, in the order given: a rank stepping
// one of its nests would keep the other's downwind readers waiting, and
// two such ranks could wait on each other. cells must be the parent
// model's current cell population.
func StepNests(w *mpi.World, cfg Config, cells []Cell, nests []*Nest) error {
	// A restored nest meets the flow here first, so this is where a reach
	// beyond the halo is refused for it.
	spec := nestAdvectSpec(cfg)
	if err := checkReach(spec.UX, spec.VY); err != nil {
		return err
	}
	sp := steppers.Get().(*stepper)
	defer sp.release()
	if cap(sp.owner) < w.Size() {
		sp.owner = make([]*Nest, w.Size())
	}
	sp.owner = sp.owner[:w.Size()]
	owner := sp.owner
	for _, n := range nests {
		if n.local == nil {
			return fmt.Errorf("wrfsim: nest %d is not placed; step it with Nest.Step", n.ID)
		}
		if w.Size() != n.pg.Size() {
			return fmt.Errorf("wrfsim: world of %d ranks for grid of %d", w.Size(), n.pg.Size())
		}
		for rank, st := range n.local {
			if st == nil {
				continue
			}
			if owner[rank] != nil {
				for i := range nests {
					if err := StepNests(w, cfg, cells, nests[i:i+1]); err != nil {
						return err
					}
				}
				return nil
			}
			owner[rank] = n
		}
	}
	sp.ranks = sp.ranks[:0]
	for rank, n := range owner {
		if n != nil {
			sp.ranks = append(sp.ranks, rank)
		}
	}
	for _, n := range nests {
		n.stamps.build(cells, cfg.Dt, NestRatio, geom.Point{X: n.Region.X0, Y: n.Region.Y0}, geom.NewRect(0, 0, n.nx, n.ny))
	}
	sp.spec, sp.world = spec, w
	if err := w.RunOn(sp.ranks, sp.run); err != nil {
		// The counters of a failed step are ahead of the nests' step
		// counts: a later step would take them for its own substeps.
		for _, n := range nests {
			for _, st := range n.local {
				if st != nil {
					st.seq.Store(0)
				}
			}
		}
		return err
	}
	for _, n := range nests {
		n.turn()
	}
	return nil
}

// stepper is StepNests' dispatch scratch: the owner table, the rank list
// and the rank function, bound once to the stepper, so that a steady
// dispatch allocates none of them.
type stepper struct {
	owner []*Nest // by world rank
	ranks []int
	spec  field.AdvectSpec
	world *mpi.World
	run   func(r *mpi.Rank)
}

var steppers = sync.Pool{New: func() any {
	sp := new(stepper)
	sp.run = func(r *mpi.Rank) { sp.owner[r.ID()].stepRank(sp.world, r, sp.spec) }
	return sp
}}

// release returns the stepper to the pool holding no nest and no world.
func (sp *stepper) release() {
	clear(sp.owner)
	sp.world = nil
	steppers.Put(sp)
}

// nestAdvectSpec is a nest's advection pass under cfg, over a source
// holding the whole nest: the parent's flow and decay per fine substep.
// The caller adds the nest's extents.
func nestAdvectSpec(cfg Config) field.AdvectSpec {
	dtFine := cfg.Dt / NestRatio
	return field.AdvectSpec{
		UX:    cfg.FlowU * dtFine * NestRatio, // fine cells per substep
		VY:    cfg.FlowV * dtFine * NestRatio,
		Decay: math.Exp(-dtFine / cfg.DecayTau),
	}
}

// stepRank is one owner rank's work for one parent step of the nest on
// world w: in each substep, the deposit into its window of the substep's
// buffer, the exchange, and the advection of its window of the next buffer
// out of the whole of this one.
func (n *Nest) stepRank(w *mpi.World, r *mpi.Rank, spec field.AdvectSpec) {
	st := n.local[r.ID()]
	blk := st.block
	// The plans follow the flow as well as the blocks, and the flow arrives
	// with every step's cfg.
	dist, me := geom.NewBlockDist(n.nx, n.ny, n.procs), n.pg.Coord(r.ID())
	if !st.halo.builtFor(w, n.pg, dist, me, spec.UX, spec.VY) {
		st.halo.reset(n.pg, dist, me, spec.UX, spec.VY)
		st.halo.price(w, r)
	}
	spec.GNX, spec.GNY = n.nx, n.ny
	st.advect.Prepare(spec, blk, n.nx)
	for s := 0; s < NestRatio; s++ {
		src, dst := n.substep(s)
		n.stamps.addWindow(src, blk)
		r.Compute(float64(blk.Area()) * 5e-9)

		st.exchange(r, n.local, s, n.steps)

		st.advect.Advect(dst, src)
		r.Compute(float64(blk.Area()) * 2e-8)
	}
}

// Redistribute moves the nest's distributed state from its current
// sub-rectangle to newProcs with one Alltoallv (§IV, Fig. 3): senders ship
// the intersections of their old window with each receiver's new window
// (redist.Exchange, dispatched on the old and new owners only), out of the
// nest-wide field into a second nest-wide buffer, which then becomes the
// field. So the executed exchange moves every byte it prices. Returns the
// modelled exchange time.
func (n *Nest) Redistribute(w *mpi.World, newProcs geom.Rect) (float64, error) {
	if n.local == nil {
		return 0, fmt.Errorf("wrfsim: nest %d is not placed", n.ID)
	}
	if w.Size() != n.pg.Size() {
		return 0, fmt.Errorf("wrfsim: world of %d ranks for grid of %d", w.Size(), n.pg.Size())
	}
	if newProcs.Empty() || !n.pg.Bounds().ContainsRect(newProcs) {
		return 0, fmt.Errorf("wrfsim: invalid new sub-rectangle %v", newProcs)
	}
	oldDist := geom.NewBlockDist(n.nx, n.ny, n.procs)
	newDist := geom.NewBlockDist(n.nx, n.ny, newProcs)
	if err := n.checkHalo(newDist); err != nil {
		return 0, err
	}

	tr := n.tracer
	var wallStart time.Time
	if tr != nil {
		wallStart = time.Now()
	}
	oldProcs := n.procs
	// Each new owner draws a share: the one it holds if it owns an old
	// block too, else one from the pool. The old windows are read out of
	// ring[0] and the new ones written into ring[1], free between steps,
	// so a failed exchange leaves the nest as it was.
	newDist.Blocks(func(p geom.Point, blk geom.Rect) {
		rank := n.pg.Rank(p)
		st := n.local[rank]
		if st == nil {
			st = rankShares.get()
		}
		n.staged[rank] = st
	})
	src := func(int) redist.Window { return redist.Window{F: n.ring[0]} }
	dst := func(int) redist.Window { return redist.Window{F: n.ring[1]} }
	arenas := exchangeArenas.Get().(*[]mpi.Scratch)
	if len(*arenas) < n.pg.Size() {
		*arenas = make([]mpi.Scratch, n.pg.Size())
	}
	elapsed, moved, err := redist.Exchange(w, n.pg, oldDist, newDist, *arenas, src, dst)
	exchangeArenas.Put(arenas)
	// Whichever side is abandoned returns its shares to the pool: the
	// staged ones from the pool on failure, the leaving owners' on success.
	keep, drop := n.staged, n.local
	if err != nil {
		keep, drop = n.local, n.staged
	}
	for rank, st := range drop {
		if st != nil && keep[rank] != st {
			st.recycle()
		}
	}
	clear(drop)
	if err != nil {
		return 0, err
	}
	newDist.Blocks(func(p geom.Point, blk geom.Rect) {
		n.staged[n.pg.Rank(p)].block = blk
	})
	n.ring[0], n.ring[1] = n.ring[1], n.ring[0]
	n.procs = newProcs
	n.local, n.staged = n.staged, n.local
	if tr != nil {
		tr.Emit(obs.Event{
			Kind:        obs.KindRedist,
			NestID:      n.ID,
			DurNS:       time.Since(wallStart).Nanoseconds(),
			Actual:      elapsed,
			RedistBytes: int64(moved) * 8, // one float64 per sample
			Detail:      fmt.Sprintf("procs %v -> %v", oldProcs, newProcs),
		})
	}
	return elapsed, nil
}
