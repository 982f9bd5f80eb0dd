package wrfsim

import (
	"fmt"
	"math"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
)

// ParallelModel runs the parent simulation distributed over the ranks of
// an MPI world, the way WRF itself runs: the domain is block-decomposed
// over the Px×Py process grid, each rank steps its block locally, and the
// semi-Lagrangian advection reads up to HaloWidth cells into the upwind
// neighbours' blocks, exchanged point-to-point each step. Split files
// come straight from rank-local state — no gather of the global field is
// ever needed, which is exactly why the paper's analysis pipeline works
// on split files.
//
// The parallel model is bit-equivalent to the serial Model stepped with
// the same configuration and cell schedule (verified in tests): the
// physics is deterministic and cells are global state replicated on every
// rank.
type ParallelModel struct {
	cfg   Config
	pg    geom.Grid
	world *mpi.World
	dist  geom.BlockDist

	// Per-rank state, indexed by rank. Only rank r's goroutine touches
	// local[r] between collectives.
	local []*rankState

	cells   []Cell // global, stepped identically on the calling goroutine
	genesis int    // as on Model
	// cellScratch is the per-step snapshot handed to rank goroutines,
	// reused across steps (Run is synchronous, so the buffer is idle again
	// by the time Step returns).
	cellScratch []Cell
	time        float64
	step        int
}

type rankState struct {
	block  geom.Rect // owned region in domain coordinates
	qcloud *field.Field
	olr    *field.Field
	// next is the advection double buffer, halo the rank's exchange plan
	// with its halo-extended source field and stamps the step's source term
	// on the block, all reused every step so steady-state stepping allocates
	// nothing (the parent decomposition never changes, so the plan is built
	// once). None carries state between steps and none is checkpointed.
	next   *field.Field
	halo   haloPlan
	stamps sourceStamps
}

// NewParallelModel builds a distributed model over a freshly created
// world of pg.Size() ranks using the given (possibly nil) network for the
// virtual clock.
func NewParallelModel(cfg Config, pg geom.Grid, world *mpi.World) (*ParallelModel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.SpawnRate != 0 {
		return nil, fmt.Errorf("wrfsim: parallel model requires a scripted cell schedule (SpawnRate must be 0)")
	}
	if world.Size() != pg.Size() {
		return nil, fmt.Errorf("wrfsim: world of %d ranks for process grid of %d", world.Size(), pg.Size())
	}
	if pg.Px > cfg.NX || pg.Py > cfg.NY {
		return nil, fmt.Errorf("wrfsim: process grid %dx%d larger than domain %dx%d",
			pg.Px, pg.Py, cfg.NX, cfg.NY)
	}
	ux, vy := cfg.FlowU*cfg.Dt, cfg.FlowV*cfg.Dt // cells per step, as rankStep advects
	if err := checkReach(ux, vy); err != nil {
		return nil, err
	}
	pm := &ParallelModel{
		cfg:   cfg,
		pg:    pg,
		world: world,
		dist:  geom.NewBlockDist(cfg.NX, cfg.NY, pg.Bounds()),
		local: make([]*rankState, pg.Size()),
	}
	for r := 0; r < pg.Size(); r++ {
		blk := pm.dist.BlockOf(pg.Coord(r))
		if blk.Width() < HaloWidth || blk.Height() < HaloWidth {
			return nil, fmt.Errorf("wrfsim: rank %d block %v narrower than the %d-cell halo; use fewer ranks",
				r, blk, HaloWidth)
		}
		st := &rankState{
			block:  blk,
			qcloud: field.New(blk.Width(), blk.Height()),
			olr:    field.New(blk.Width(), blk.Height()),
			next:   field.New(blk.Width(), blk.Height()),
		}
		st.halo.reset(pg, pm.dist, pg.Coord(r), ux, vy)
		st.olr.Fill(cfg.OLRClear)
		pm.local[r] = st
	}
	return pm, nil
}

// InjectCell adds a convective cell; cells are global state.
func (pm *ParallelModel) InjectCell(c Cell) error {
	if err := validCell(c); err != nil {
		return err
	}
	pm.cells = append(pm.cells, c)
	return nil
}

// Time returns simulated seconds since start.
func (pm *ParallelModel) Time() float64 { return pm.time }

// StepCount returns completed steps.
func (pm *ParallelModel) StepCount() int { return pm.step }

// Step advances every rank by one Dt: scripted genesis and cell update
// (replicated), local deposit, halo exchange, local semi-Lagrangian
// advection + decay, local OLR diagnostic.
func (pm *ParallelModel) Step() error {
	// Genesis and cell life cycle (identical to the serial model, on the
	// calling goroutine).
	dt := pm.cfg.Dt
	pm.cells = pm.cfg.advanceCells(pm.cells, &pm.genesis, pm.step)
	pm.cellScratch = append(pm.cellScratch[:0], pm.cells...)
	cells := pm.cellScratch

	err := pm.world.Run(func(r *mpi.Rank) {
		st := pm.local[r.ID()]
		pm.rankStep(r, st, cells)
	})
	if err != nil {
		return err
	}
	pm.time += dt
	pm.step++
	return nil
}

// rankStep is one rank's work for one time step.
func (pm *ParallelModel) rankStep(r *mpi.Rank, st *rankState, cells []Cell) {
	cfg := pm.cfg
	// Deposit the global cells into the local block (serial-model
	// deposit restricted to owned cells).
	st.stamps.build(cells, cfg.Dt, 1, geom.Point{}, st.block)
	st.stamps.addTo(st.qcloud)
	r.Compute(float64(st.block.Area()) * 5e-9)

	// Build the halo-extended field: interior from the local block, the
	// border cells the advection below reads from the upwind neighbours.
	ext := st.halo.exchange(r, st.qcloud, pm.step*16)

	// Semi-Lagrangian advection reading from the extended field, plus
	// decay, fused into one pass. Departure points clamp to the global
	// domain border exactly like the serial model's Bilinear clamp, then
	// shift into extended-field coordinates (halo origin offset).
	field.AdvectDecay(st.next, ext, field.AdvectSpec{
		UX: cfg.FlowU * cfg.Dt, VY: cfg.FlowV * cfg.Dt,
		GX0: st.block.X0, GY0: st.block.Y0,
		GNX: cfg.NX, GNY: cfg.NY,
		OffX: HaloWidth, OffY: HaloWidth,
		Decay: math.Exp(-cfg.Dt / cfg.DecayTau),
	})
	st.qcloud, st.next = st.next, st.qcloud

	// OLR diagnostic.
	for i, q := range st.qcloud.Data {
		olr := cfg.OLRClear - cfg.OLRPerQ*q
		if olr < cfg.OLRMin {
			olr = cfg.OLRMin
		}
		st.olr.Data[i] = olr
	}
	r.Compute(float64(st.block.Area()) * 2e-8)
}

// Splits returns every rank's current state as split files, directly from
// rank-local storage.
func (pm *ParallelModel) Splits() []Split {
	out := make([]Split, pm.pg.Size())
	for r := 0; r < pm.pg.Size(); r++ {
		st := pm.local[r]
		out[r] = Split{
			Rank:   r,
			Px:     pm.pg.Px,
			Py:     pm.pg.Py,
			Bounds: st.block,
			Step:   pm.step,
			QCloud: st.qcloud.Clone(),
			OLR:    st.olr.Clone(),
		}
	}
	return out
}

// Gather reassembles the global QCLOUD field (testing/visualization only;
// the production pipeline never needs it).
func (pm *ParallelModel) Gather() *field.Field {
	out := field.New(pm.cfg.NX, pm.cfg.NY)
	for _, st := range pm.local {
		out.SetSub(st.block, st.qcloud)
	}
	return out
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
