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

// ParallelNest is a nested simulation stepped by the processor
// sub-rectangle the allocator gave it — the paper's actual runtime
// arrangement ("each nested simulation is executed on disjoint subsets of
// the total number of processors"). The ranks share one address space, so
// the nest's fine field is one nest-wide field, and each owner rank
// deposits into and advects its window of it, its block of the
// decomposition, reading its upwind neighbours' windows in place once they
// have published them: the MPI-3 shared-memory window arrangement. Every
// sample therefore takes the serial nest's arithmetic, and the nest steps
// bit-identically to a serial nest (verified in tests). When the allocator
// moves it to a different sub-rectangle, Redistribute performs the
// block-intersection Alltoallv: the new owners receive exactly the windows
// they need and continue stepping.
type ParallelNest struct {
	ID     int
	Region geom.Rect // region of interest in parent grid points

	pg    geom.Grid
	procs geom.Rect // current processor sub-rectangle
	nx    int       // fine extents
	ny    int
	// ring is the nest-wide fine field in NestRatio+1 buffers. ring[0]
	// holds the nest between steps. Substep s of a step deposits into
	// ring[s] and advects from the whole of it into ring[s+1], each owner
	// rank in its own window, so every window a rank published stays intact
	// while a downwind reader may still read it; the ring turns after the
	// dispatch to put the result in ring[0]. Between steps ring[1] is
	// Redistribute's receive buffer.
	ring [NestRatio + 1]*field.Field
	// local[rank] is that rank's share of the nest (nil for ranks outside
	// the sub-grid). A slice, not a map: each rank's goroutine touches only
	// its own element, which is race-free. staged is Redistribute's table
	// of the new owners' shares, swapped with local once the exchange is
	// done.
	local  []*nestRank
	staged []*nestRank
	steps  int
	// stamps is the parent step's source term over the whole fine grid,
	// built once per step on the calling goroutine; each owner rank adds
	// the part inside its window.
	stamps sourceStamps

	// tracer, when set, receives one redist event per executed Alltoallv.
	// It is runtime wiring, not state: checkpoints never carry it.
	tracer *obs.Tracer
}

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
var rankShares = sync.Pool{New: func() any { return new(nestRank) }}

// recycle returns st to rankShares with its publication counter at zero,
// below any substep of the nest that draws it next, and its plan holding
// no world, so the pool keeps no dropped world reachable.
func (st *nestRank) recycle() {
	st.seq.Store(0)
	st.halo.world = nil
	rankShares.Put(st)
}

// exchangeArenas recycles the per-rank Alltoallv arenas of Redistribute,
// one per world rank, between redistributions of every nest.
var exchangeArenas = sync.Pool{New: func() any { return new([]mpi.Scratch) }}

// Release returns the nest's rank shares to the pool that later nests and
// redistributions draw theirs from. The nest must not be used afterwards:
// a step of it is an error, and a second Release does nothing.
func (n *ParallelNest) Release() {
	for _, st := range n.local {
		if st != nil {
			st.recycle()
		}
	}
	n.local, n.staged = nil, nil
}

// SetTracer installs a structured tracer on the nest (nil removes it);
// Redistribute then emits one event per executed exchange.
func (n *ParallelNest) SetTracer(tr *obs.Tracer) { n.tracer = tr }

// NewParallelNest spawns a distributed nest over the given processor
// sub-rectangle, initializing its field by interpolating the parent
// model's field exactly like the serial SpawnNest.
func (m *Model) NewParallelNest(id int, region geom.Rect, pg geom.Grid, procs geom.Rect) (*ParallelNest, error) {
	if region.Empty() || !m.qcloud.Bounds().ContainsRect(region) {
		return nil, fmt.Errorf("wrfsim: invalid nest region %v", region)
	}
	spec := nestAdvectSpec(m.cfg)
	if err := checkReach(spec.UX, spec.VY); err != nil {
		return nil, err
	}
	return RestoreParallelNest(id, region, pg, procs, field.Refine(m.qcloud, region, NestRatio), 0)
}

// place puts the nest on procs: the fine field fine becomes ring[0], and
// each owner rank draws a share for its window.
func (n *ParallelNest) place(fine *field.Field, procs geom.Rect) error {
	dist := geom.NewBlockDist(n.nx, n.ny, procs)
	if err := n.checkHalo(dist); err != nil {
		return err
	}
	n.procs = procs
	n.ring[0] = fine
	for i := 1; i < len(n.ring); i++ {
		n.ring[i] = field.New(n.nx, n.ny)
	}
	n.local = make([]*nestRank, n.pg.Size())
	n.staged = make([]*nestRank, n.pg.Size())
	dist.Blocks(func(p geom.Point, blk geom.Rect) {
		st := rankShares.Get().(*nestRank)
		st.block = blk
		n.local[n.pg.Rank(p)] = st
	})
	return nil
}

// checkHalo rejects a decomposition with a block narrower than the halo:
// a rank's reads would reach past its 8 neighbours' windows.
func (n *ParallelNest) checkHalo(dist geom.BlockDist) error {
	var err error
	dist.Blocks(func(_ geom.Point, blk geom.Rect) {
		if err == nil && (blk.Width() < HaloWidth || blk.Height() < HaloWidth) {
			err = fmt.Errorf("wrfsim: nest %d block %v over %v narrower than the %d-cell halo; use fewer ranks",
				n.ID, blk, dist.Procs, HaloWidth)
		}
	})
	return err
}

// Procs returns the current processor sub-rectangle.
func (n *ParallelNest) Procs() geom.Rect { return n.procs }

// Size returns the fine-grid extents.
func (n *ParallelNest) Size() (nx, ny int) { return n.nx, n.ny }

// StepCount returns completed fine substeps.
func (n *ParallelNest) StepCount() int { return n.steps }

// Step advances the nest through NestRatio fine substeps on the world: the
// one-nest case of StepNests. cells must be the parent model's current
// cell population.
func (n *ParallelNest) Step(w *mpi.World, cfg Config, cells []Cell) error {
	return StepNests(w, cfg, cells, []*ParallelNest{n})
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
func StepNests(w *mpi.World, cfg Config, cells []Cell, nests []*ParallelNest) error {
	// A restored nest meets the flow here first, so this is where a reach
	// beyond the halo is refused for it.
	spec := nestAdvectSpec(cfg)
	if err := checkReach(spec.UX, spec.VY); err != nil {
		return err
	}
	sp := steppers.Get().(*stepper)
	defer sp.release()
	if cap(sp.owner) < w.Size() {
		sp.owner = make([]*ParallelNest, w.Size())
	}
	sp.owner = sp.owner[:w.Size()]
	owner := sp.owner
	for _, n := range nests {
		if w.Size() != n.pg.Size() {
			return fmt.Errorf("wrfsim: world of %d ranks for grid of %d", w.Size(), n.pg.Size())
		}
		if n.local == nil {
			return fmt.Errorf("wrfsim: nest %d stepped after Release", n.ID)
		}
		for rank, st := range n.local {
			if st == nil {
				continue
			}
			if owner[rank] != nil {
				for _, one := range nests {
					if err := one.Step(w, cfg, cells); err != nil {
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
		last := n.ring[NestRatio]
		copy(n.ring[1:], n.ring[:NestRatio])
		n.ring[0] = last
		n.steps += NestRatio
	}
	return nil
}

// stepper is StepNests' dispatch scratch: the owner table, the rank list
// and the rank function, bound once to the stepper, so that a steady
// dispatch allocates none of them.
type stepper struct {
	owner []*ParallelNest // by world rank
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

// nestAdvectSpec is a distributed nest's advection pass under cfg: the
// serial Nest's flow and decay per fine substep, over a source holding the
// whole nest.
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
func (n *ParallelNest) stepRank(w *mpi.World, r *mpi.Rank, spec field.AdvectSpec) {
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
		n.stamps.addWindow(n.ring[s], blk)
		r.Compute(float64(blk.Area()) * 5e-9)

		st.exchange(r, n.local, s, n.steps)

		st.advect.Advect(n.ring[s+1], n.ring[s])
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
func (n *ParallelNest) Redistribute(w *mpi.World, newProcs geom.Rect) (float64, error) {
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
			st = rankShares.Get().(*nestRank)
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

// QCloud returns the nest's live fine-resolution cloud-water field, the
// one nest-wide field its ranks step (do not mutate). It is valid until the
// next step or Redistribute, which may move the nest to another buffer.
func (n *ParallelNest) QCloud() *field.Field { return n.ring[0] }

// Gather returns a copy of the full fine field.
func (n *ParallelNest) Gather() *field.Field { return n.ring[0].Clone() }

// Feedback coarsens the distributed nest's state back onto the parent
// domain (two-way nesting), like the serial Nest.Feedback.
func (n *ParallelNest) Feedback(m *Model) {
	coarse := field.Coarsen(n.ring[0], NestRatio)
	m.qcloud.SetSub(n.Region, coarse)
	m.olrStale = true
}
