package wrfsim

import (
	"fmt"
	"math"
	"time"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
	"nestdiff/internal/obs"
	"nestdiff/internal/redist"
)

// ParallelNest is a nested simulation whose fine-resolution field lives
// block-distributed over the processor sub-rectangle the allocator gave
// it — the paper's actual runtime arrangement ("each nested simulation is
// executed on disjoint subsets of the total number of processors"). It
// steps with halo exchange on its sub-grid, and when the allocator moves
// it to a different sub-rectangle, Redistribute performs the
// block-intersection Alltoallv in place: the new owners receive exactly
// the state they need and continue stepping, bit-identically to a serial
// nest (verified in tests).
type ParallelNest struct {
	ID     int
	Region geom.Rect // region of interest in parent grid points

	pg    geom.Grid
	procs geom.Rect // current processor sub-rectangle
	nx    int       // fine extents
	ny    int
	// local[rank] is that rank's share of the nest (nil for ranks outside
	// the sub-grid), rebuilt whenever procs changes. A slice, not a map:
	// each rank's goroutine touches only its own element, which is
	// race-free.
	local []*nestRank
	// redistScratch[rank] is that rank's Alltoallv arena, reused across
	// redistributions (indexed and touched like local).
	redistScratch []mpi.Scratch
	steps         int

	// tracer, when set, receives one redist event per executed Alltoallv.
	// It is runtime wiring, not state: checkpoints never carry it.
	tracer *obs.Tracer
}

// nestRank is one owner rank's share of a distributed nest: its block of
// the fine field plus step scratch: the advection double buffer, the
// cached halo plan and the parent step's source stamps. The scratch is
// built by the rank's first step on a decomposition (next == nil until
// then), so scatter and Redistribute stay as cheap as moving the data; it
// carries no state between substeps and is never checkpointed. scatter and
// Redistribute replace the whole nestRank, so a plan never outlives the
// blocks it was built for.
type nestRank struct {
	block  geom.Rect // owned fine cells
	f      *field.Field
	next   *field.Field
	halo   haloPlan
	stamps sourceStamps
}

// SetTracer installs a structured tracer on the nest (nil removes it);
// Redistribute then emits one event per executed exchange.
func (n *ParallelNest) SetTracer(tr *obs.Tracer) { n.tracer = tr }

// NewParallelNest spawns a distributed nest over the given processor
// sub-rectangle, initializing each owner's block by interpolating the
// parent model's field (exactly like the serial SpawnNest, then
// scattered).
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

// scatter distributes a full fine field into per-rank blocks over procs.
func (n *ParallelNest) scatter(fine *field.Field, procs geom.Rect) error {
	dist := geom.NewBlockDist(n.nx, n.ny, procs)
	if err := n.checkHalo(dist); err != nil {
		return err
	}
	n.procs = procs
	n.local = make([]*nestRank, n.pg.Size())
	dist.Blocks(func(p geom.Point, blk geom.Rect) {
		n.local[n.pg.Rank(p)] = &nestRank{block: blk, f: fine.Sub(blk)}
	})
	n.redistScratch = make([]mpi.Scratch, n.pg.Size())
	return nil
}

// checkHalo rejects a decomposition with a block narrower than the halo.
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
// them at once, and ranks that own nothing are never woken. Each rank runs
// its substeps back to back; the halo messages, tagged by substep, are the
// only synchronisation the physics needs.
//
// Nests whose processor sub-rectangles overlap would share mailbox
// (from, tag) keys, so when the owner table finds one rank claimed twice
// the nests are stepped one dispatch each, in the order given. cells must
// be the parent model's current cell population.
func StepNests(w *mpi.World, cfg Config, cells []Cell, nests []*ParallelNest) error {
	// A restored nest meets the flow here first, so this is where a reach
	// beyond the halo is refused for it.
	spec := nestAdvectSpec(cfg)
	if err := checkReach(spec.UX, spec.VY); err != nil {
		return err
	}
	owner := make([]*ParallelNest, w.Size())
	ranks := make([]int, 0, w.Size())
	for _, n := range nests {
		if w.Size() != n.pg.Size() {
			return fmt.Errorf("wrfsim: world of %d ranks for grid of %d", w.Size(), n.pg.Size())
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
	for rank, n := range owner {
		if n != nil {
			ranks = append(ranks, rank)
		}
	}
	err := w.RunOn(ranks, func(r *mpi.Rank) {
		owner[r.ID()].stepRank(r, cfg, cells, spec)
	})
	if err != nil {
		return err
	}
	for _, n := range nests {
		n.steps += NestRatio
	}
	return nil
}

// nestAdvectSpec is the block-independent part of a distributed nest's
// advection pass under cfg: the serial Nest's flow and decay per fine
// substep, reading a halo-extended source.
func nestAdvectSpec(cfg Config) field.AdvectSpec {
	dtFine := cfg.Dt / NestRatio
	return field.AdvectSpec{
		UX:   cfg.FlowU * dtFine * NestRatio, // fine cells per substep
		VY:   cfg.FlowV * dtFine * NestRatio,
		OffX: HaloWidth, OffY: HaloWidth,
		Decay: math.Exp(-dtFine / cfg.DecayTau),
	}
}

// stepRank is one owner rank's work for one parent step of the nest.
func (n *ParallelNest) stepRank(r *mpi.Rank, cfg Config, cells []Cell, spec field.AdvectSpec) {
	st := n.local[r.ID()]
	blk := st.block
	if st.next == nil {
		st.next = field.New(blk.Width(), blk.Height())
	}
	// The plan follows the flow as well as the blocks, and the flow arrives
	// with every step's cfg.
	if st.halo.ext == nil || st.halo.ux != spec.UX || st.halo.vy != spec.VY {
		st.halo = newHaloPlan(n.pg, geom.NewBlockDist(n.nx, n.ny, n.procs), n.pg.Coord(r.ID()), spec.UX, spec.VY)
	}
	spec.GX0, spec.GY0 = blk.X0, blk.Y0
	spec.GNX, spec.GNY = n.nx, n.ny
	st.stamps.build(cells, cfg.Dt, NestRatio, geom.Point{X: n.Region.X0, Y: n.Region.Y0}, blk)
	for s := 0; s < NestRatio; s++ {
		// Deposit the sources into the owned block.
		st.stamps.addTo(st.f)
		r.Compute(float64(blk.Area()) * 5e-9)

		ext := st.halo.exchange(r, st.f, (n.steps+s)*16)

		// Advect+decay into the double buffer, then swap it with the
		// owned block.
		field.AdvectDecay(st.next, ext, spec)
		st.f, st.next = st.next, st.f
		r.Compute(float64(blk.Area()) * 2e-8)
	}
}

// Redistribute moves the nest's distributed state from its current
// sub-rectangle to newProcs with one Alltoallv (§IV, Fig. 3): senders ship
// the intersections of their old block with each receiver's new block
// (redist.Exchange, dispatched on the old and new owners only). Returns
// the modelled exchange time.
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
	newLocal := make([]*nestRank, n.pg.Size())
	newDist.Blocks(func(p geom.Point, blk geom.Rect) {
		newLocal[n.pg.Rank(p)] = &nestRank{block: blk, f: field.New(blk.Width(), blk.Height())}
	})
	window := func(local []*nestRank) func(rank int) redist.Window {
		return func(rank int) redist.Window {
			st := local[rank]
			return redist.Window{F: st.f, X0: st.block.X0, Y0: st.block.Y0}
		}
	}
	elapsed, moved, err := redist.Exchange(w, n.pg, oldDist, newDist, n.redistScratch, window(n.local), window(newLocal))
	if err != nil {
		return 0, err
	}
	n.procs = newProcs
	n.local = newLocal
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

// Gather reassembles the full fine field (testing/feedback only).
func (n *ParallelNest) Gather() *field.Field {
	return n.GatherInto(nil)
}

// GatherInto reassembles the full fine field into out, reallocating only
// when out is nil or the wrong shape — the allocation-free counterpart of
// Gather for callers (the checkpoint encoder) that keep a scratch field
// across intervals. The blocks tile the fine grid exactly, so every sample
// of out is overwritten.
func (n *ParallelNest) GatherInto(out *field.Field) *field.Field {
	if out == nil || out.NX != n.nx || out.NY != n.ny {
		out = field.New(n.nx, n.ny)
	}
	dist := geom.NewBlockDist(n.nx, n.ny, n.procs)
	dist.Blocks(func(p geom.Point, blk geom.Rect) {
		out.SetSub(blk, n.local[n.pg.Rank(p)].f)
	})
	return out
}

// Feedback coarsens the distributed nest's state back onto the parent
// domain (two-way nesting), like the serial Nest.Feedback.
func (n *ParallelNest) Feedback(m *Model) {
	coarse := field.Coarsen(n.Gather(), NestRatio)
	m.qcloud.SetSub(n.Region, coarse)
	m.olrStale = true
}
