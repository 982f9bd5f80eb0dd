package wrfsim

import (
	"fmt"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
	"nestdiff/internal/obs"
)

// NestRatio is the refinement ratio of nested domains: "the resolutions of
// these nested simulations are thrice that of the parent simulation" (§IV).
const NestRatio = 3

// Nest is a high-resolution nested simulation over a region of interest of
// the parent domain. Its initial cloud-water field is interpolated from
// the parent (the paper's on-the-fly spawn path), and it steps with
// NestRatio substeps per parent step on a NestRatio× finer grid.
//
// A nest holds one nest-wide fine field. Unplaced, it is one window that
// Step advances on the caller. Place puts it on the processor
// sub-rectangle the allocator gave it — "each nested simulation is
// executed on disjoint subsets of the total number of processors" — whose
// owner ranks then step their windows of the field in place (StepNests),
// reading their upwind neighbours' windows once they have published them,
// the MPI-3 shared-memory window arrangement; Redistribute moves it. Every
// sample takes the same arithmetic either way, so a nest steps
// bit-identically placed or not (verified in tests).
type Nest struct {
	ID     int
	Region geom.Rect // region of interest, in parent grid points
	nx, ny int       // fine extents
	// ring is the nest-wide fine field in rotating buffers: two while the
	// nest is unplaced, NestRatio+1 once Place has added the rest. ring[0]
	// holds the nest between steps. Substep s of a step deposits into its
	// source buffer and advects from the whole of it into its destination
	// (substep), each owner in its own window. Placed, no substep writes a
	// buffer another substep of the step reads, so every window a rank
	// published stays intact while a downwind reader may still read it.
	// The ring turns after the step to put the result in ring[0]. Between
	// steps ring[1] is Redistribute's receive buffer.
	ring []*field.Field
	// stamps is the parent step's source term over the whole fine grid,
	// built once per step on the calling goroutine; each owner adds the
	// part inside its window. Derived state, never checkpointed.
	stamps sourceStamps
	steps  int
	// advect is the unplaced nest's plan for its one window, the whole
	// field: scratch like stamps.
	advect field.AdvectPlan

	// The placement, zero for an unplaced nest: the process grid, the
	// processor sub-rectangle, and local[rank], that rank's share of the
	// nest (nil outside the sub-grid; a slice, not a map, so each rank's
	// goroutine touches only its own element). staged is Redistribute's
	// table of the new owners' shares, swapped with local once the
	// exchange is done.
	pg     geom.Grid
	procs  geom.Rect
	local  []*nestRank
	staged []*nestRank
	// tracer, when set, receives one redist event per executed Alltoallv.
	// It is runtime wiring, not state: checkpoints never carry it.
	tracer *obs.Tracer
}

// SpawnNest creates an unplaced nest over the given parent region,
// initializing it by bilinear interpolation of the parent's current state.
func (m *Model) SpawnNest(id int, region geom.Rect) (*Nest, error) {
	if region.Empty() {
		return nil, fmt.Errorf("wrfsim: empty nest region")
	}
	if !m.qcloud.Bounds().ContainsRect(region) {
		return nil, fmt.Errorf("wrfsim: nest region %v outside parent %dx%d",
			region, m.cfg.NX, m.cfg.NY)
	}
	return RestoreNest(id, region, field.Refine(m.qcloud, region, NestRatio), 0)
}

// QCloud returns the nest's live fine-resolution cloud-water field, the
// one nest-wide field it steps (do not mutate). It is valid until the next
// step or Redistribute, which may move the nest to another buffer.
func (n *Nest) QCloud() *field.Field { return n.ring[0] }

// Size returns the nest's fine-grid extents.
func (n *Nest) Size() (nx, ny int) { return n.nx, n.ny }

// StepCount returns the number of completed fine substeps.
func (n *Nest) StepCount() int { return n.steps }

// Step advances an unplaced nest through NestRatio fine substeps on the
// caller, mirroring the parent physics (same cells, same flow) at
// NestRatio× the resolution and NestRatio× smaller time step: the
// one-window case of StepNests' rank loop, with no exchange. Call it once
// per parent Step. A placed nest is refused; StepNests steps it.
func (n *Nest) Step(m *Model) error {
	if n.local != nil {
		return fmt.Errorf("wrfsim: nest %d is placed on %v; step it with StepNests", n.ID, n.procs)
	}
	whole := geom.NewRect(0, 0, n.nx, n.ny)
	n.stamps.build(m.cells, m.cfg.Dt, NestRatio, geom.Point{X: n.Region.X0, Y: n.Region.Y0}, whole)
	spec := nestAdvectSpec(m.cfg)
	spec.GNX, spec.GNY = n.nx, n.ny
	n.advect.Prepare(spec, whole, n.nx)
	for s := 0; s < NestRatio; s++ {
		src, dst := n.substep(s)
		n.stamps.addWindow(src, whole)
		n.advect.Advect(dst, src)
	}
	n.turn()
	return nil
}

// substep returns the buffers substep s of a step advects from and into.
func (n *Nest) substep(s int) (src, dst *field.Field) {
	return n.ring[s%len(n.ring)], n.ring[(s+1)%len(n.ring)]
}

// turn ends a step: the ring rotates to put the last substep's buffer in
// ring[0].
func (n *Nest) turn() {
	var was [NestRatio + 1]*field.Field
	copy(was[:], n.ring)
	for i := range n.ring {
		n.ring[i] = was[(i+NestRatio)%len(n.ring)]
	}
	n.steps += NestRatio
}

// Feedback coarsens the nest's state back onto the parent domain,
// replacing the parent's cloud water under the nest region (two-way
// nesting).
func (n *Nest) Feedback(m *Model) {
	coarse := field.Coarsen(n.ring[0], NestRatio)
	m.qcloud.SetSub(n.Region, coarse)
	m.olrStale = true
}
