package wrfsim

import (
	"fmt"
	"math"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
)

// NestRatio is the refinement ratio of nested domains: "the resolutions of
// these nested simulations are thrice that of the parent simulation" (§IV).
const NestRatio = 3

// Nest is a high-resolution nested simulation over a region of interest of
// the parent domain. Its initial cloud-water field is interpolated from
// the parent (the paper's on-the-fly spawn path), and it steps with
// NestRatio substeps per parent step on a NestRatio× finer grid.
type Nest struct {
	ID     int
	Region geom.Rect // region of interest, in parent grid points
	qcloud *field.Field
	// scratch is the advection double buffer: each substep advects qcloud
	// into it and swaps the two, so steady-state stepping allocates nothing.
	// It carries no state between substeps and is never checkpointed.
	scratch *field.Field
	// stamps is the parent step's source term on the fine grid, built once
	// per Step and added in every substep: derived state like scratch.
	stamps sourceStamps
	steps  int
}

// SpawnNest creates a nest over the given parent region, initializing it
// by bilinear interpolation of the parent's current state.
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

// QCloud returns the nest's live fine-resolution cloud-water field.
func (n *Nest) QCloud() *field.Field { return n.qcloud }

// Size returns the nest's fine-grid extents.
func (n *Nest) Size() (nx, ny int) { return n.qcloud.NX, n.qcloud.NY }

// StepCount returns the number of completed fine substeps.
func (n *Nest) StepCount() int { return n.steps }

// Step advances the nest through NestRatio fine substeps, mirroring the
// parent physics (same cells, same flow) at NestRatio× the resolution and
// NestRatio× smaller time step. Call it once per parent Step.
func (n *Nest) Step(m *Model) {
	dtFine := m.cfg.Dt / NestRatio
	ux := m.cfg.FlowU * dtFine * NestRatio // flow in fine cells per substep
	vy := m.cfg.FlowV * dtFine * NestRatio
	decay := math.Exp(-dtFine / m.cfg.DecayTau)
	n.stamps.build(m.cells, m.cfg.Dt, NestRatio, geom.Point{X: n.Region.X0, Y: n.Region.Y0}, n.qcloud.Bounds())
	for s := 0; s < NestRatio; s++ {
		n.stamps.addTo(n.qcloud)
		field.AdvectDecay(n.scratch, n.qcloud, field.AdvectSpec{
			UX: ux, VY: vy,
			GNX: n.qcloud.NX, GNY: n.qcloud.NY,
			Decay: decay,
		})
		n.qcloud, n.scratch = n.scratch, n.qcloud
		n.steps++
	}
}

// Feedback coarsens the nest's state back onto the parent domain,
// replacing the parent's cloud water under the nest region (two-way
// nesting).
func (n *Nest) Feedback(m *Model) {
	coarse := field.Coarsen(n.qcloud, NestRatio)
	m.qcloud.SetSub(n.Region, coarse)
	m.olrStale = true
}
