// Package wrfsim is the surrogate for the WRF weather model (v3.3.1 in the
// paper). It is not a weather forecast: it reproduces the *interfaces and
// dynamics class* the paper's framework consumes — a 2D parent domain that
// develops multiple transient, coherent regions of high cloud water mixing
// ratio (QCLOUD) with correspondingly low outgoing long-wave radiation
// (OLR), per-rank split-file output for the parallel data analysis
// algorithm, and 3×-resolution nested domains initialized by interpolation
// from the parent (§III, §IV).
//
// The physics is a semi-Lagrangian advection–decay equation for cloud
// water forced by a population of convective cells with a grow/peak/decay
// life cycle, drifting with the monsoon flow. Everything is seeded and
// deterministic.
package wrfsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
	"nestdiff/internal/rng"
)

// Config describes a parent simulation domain.
type Config struct {
	NX, NY int     // grid points
	Dt     float64 // time step in seconds

	// Flow is the ambient wind (grid cells per second) advecting cloud
	// water; monsoon westerlies by default.
	FlowU, FlowV float64

	// DecayTau is the e-folding decay time of cloud water in seconds.
	DecayTau float64

	// OLRClear is the clear-sky outgoing long-wave radiation (W/m²) and
	// OLRPerQ the reduction per unit of column cloud water. The paper's
	// detection threshold is OLR ≤ 200 (Gu & Zhang [10]).
	OLRClear float64
	OLRPerQ  float64
	OLRMin   float64

	// SpawnRate is the expected number of spontaneous convective-cell
	// geneses per simulated hour (0 disables spontaneous genesis; scripted
	// scenarios set Genesis instead).
	SpawnRate float64
	// Genesis is a scripted storm schedule, ascending in AtStep: each cell
	// is injected at the top of the step that starts at its AtStep. Being
	// configuration, it travels in every checkpoint of the model.
	Genesis []TimedCell

	// MergeEnabled lets drifting cells that overlap coalesce into one
	// stronger system — the clustering behaviour the paper's introduction
	// describes ("some clouds may move to different regions and cluster
	// with other clouds").
	MergeEnabled bool

	Seed int64
}

// DefaultConfig returns a laptop-scale Indian-region configuration: the
// 60°E–120°E, 5°N–40°N domain of §V-B at a coarsened grid so tests run
// fast.
func DefaultConfig() Config {
	return Config{
		NX: 180, NY: 105, // 60°x35° at 1/3° — scaled stand-in for 12 km
		Dt:        120, // PDA cadence: the paper analyzes every 2 minutes
		FlowU:     2e-3,
		FlowV:     5e-4,
		DecayTau:  5400,
		OLRClear:  280,
		OLRPerQ:   60,
		OLRMin:    90,
		SpawnRate: 2.5,
		Seed:      2005,
	}
}

// Cell is one convective system: a Gaussian cloud-water source with a
// sinusoidal life cycle, drifting with its own velocity.
type Cell struct {
	X, Y   float64 // center, in grid coordinates
	VX, VY float64 // drift, grid cells per second
	Radius float64 // Gaussian radius in grid cells
	Peak   float64 // peak source strength (QCLOUD units per step)
	Age    float64 // seconds since genesis
	Life   float64 // total lifetime in seconds
}

// TimedCell schedules a convective-cell genesis at a simulation step.
type TimedCell struct {
	AtStep int
	Cell   Cell
}

// validCell rejects a cell with no extent, strength or lifetime.
func validCell(c Cell) error {
	if c.Radius <= 0 || c.Peak <= 0 || c.Life <= 0 {
		return fmt.Errorf("wrfsim: non-physical cell %+v", c)
	}
	return nil
}

// validate rejects configurations no model can run.
func (cfg *Config) validate() error {
	if cfg.NX <= 0 || cfg.NY <= 0 {
		return fmt.Errorf("wrfsim: invalid domain %dx%d", cfg.NX, cfg.NY)
	}
	if cfg.Dt <= 0 {
		return fmt.Errorf("wrfsim: invalid time step %g", cfg.Dt)
	}
	if cfg.DecayTau <= 0 {
		return fmt.Errorf("wrfsim: invalid decay time %g", cfg.DecayTau)
	}
	for i, g := range cfg.Genesis {
		if g.AtStep < 0 || (i > 0 && g.AtStep < cfg.Genesis[i-1].AtStep) {
			return fmt.Errorf("wrfsim: genesis entry %d at step %d breaks the schedule's ascending order", i, g.AtStep)
		}
		if err := validCell(g.Cell); err != nil {
			return fmt.Errorf("wrfsim: genesis entry %d: %w", i, err)
		}
	}
	return nil
}

// advanceCells steps the storm population one Dt from step, identically
// for both models: the scripted geneses due at step join (cfg.Genesis from
// *next on), then every cell ages and drifts, and cells past their life or
// well outside the domain die.
func (cfg *Config) advanceCells(cells []Cell, next *int, step int) []Cell {
	for ; *next < len(cfg.Genesis) && cfg.Genesis[*next].AtStep == step; *next++ {
		cells = append(cells, cfg.Genesis[*next].Cell)
	}
	dt := cfg.Dt
	alive := cells[:0]
	for _, c := range cells {
		c.Age += dt
		c.X += c.VX * dt
		c.Y += c.VY * dt
		if c.Age < c.Life && c.X > -3*c.Radius && c.X < float64(cfg.NX)+3*c.Radius &&
			c.Y > -3*c.Radius && c.Y < float64(cfg.NY)+3*c.Radius {
			alive = append(alive, c)
		}
	}
	return alive
}

// Intensity returns the cell's current source strength: a half-sine
// envelope over its lifetime (genesis → peak → decay).
func (c Cell) Intensity() float64 {
	if c.Age < 0 || c.Age >= c.Life {
		return 0
	}
	return c.Peak * math.Sin(math.Pi*c.Age/c.Life)
}

// Model is the running parent simulation.
type Model struct {
	cfg    Config
	qcloud *field.Field
	// olr is the OLR diagnostic, a pure function of qcloud recomputed on
	// read: whatever changes qcloud sets olrStale, and OLR() refreshes.
	olr      *field.Field
	olrStale bool
	// scratch is the advection double buffer: each step advects qcloud
	// into scratch and swaps the two, so steady-state stepping allocates
	// nothing. It is derived state and never checkpointed.
	scratch *field.Field
	// stamps is the step's source term, rebuilt every step: derived state
	// like scratch.
	stamps sourceStamps
	cells  []Cell
	rng    *rng.SplitMix64
	time   float64
	step   int
	// genesis indexes the next cfg.Genesis entry, derived from step and
	// never checkpointed.
	genesis int
	// fieldDue is set between a StepCells and its StepField, when the
	// cells are a step ahead of the cloud water. A step boundary never has
	// it set.
	fieldDue bool
}

// NewModel builds a model from cfg. It returns an error on non-physical
// configurations, including an unsorted or non-physical Genesis schedule.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Model{
		cfg:     cfg,
		qcloud:  field.New(cfg.NX, cfg.NY),
		olr:     field.New(cfg.NX, cfg.NY),
		scratch: field.New(cfg.NX, cfg.NY),
		rng:     rng.New(uint64(cfg.Seed)),
	}
	m.updateOLR()
	return m, nil
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// Time returns the simulated seconds since start.
func (m *Model) Time() float64 { return m.time }

// StepCount returns the number of completed steps.
func (m *Model) StepCount() int { return m.step }

// QCloud returns the live cloud-water field (do not mutate).
func (m *Model) QCloud() *field.Field { return m.qcloud }

// OLR returns the live outgoing long-wave radiation field (do not mutate).
// The diagnostic is computed on demand — here, when the cloud water has
// changed since the last read — so a run that analyzes every fifth step
// pays for one pass in five. Like Step, it must not run concurrently with
// anything else on the model.
func (m *Model) OLR() *field.Field {
	if m.olrStale {
		m.updateOLR()
	}
	return m.olr
}

// Cells returns a copy of the live convective cells.
func (m *Model) Cells() []Cell { return append([]Cell(nil), m.cells...) }

// AppendCells appends the live convective cells to buf and returns the
// result — the allocation-free counterpart of Cells for callers that keep
// a scratch slice across steps.
func (m *Model) AppendCells(buf []Cell) []Cell { return append(buf, m.cells...) }

// InjectCell adds a convective cell now. A schedule known up front belongs
// in Config.Genesis instead, where checkpoints carry it.
func (m *Model) InjectCell(c Cell) error {
	if err := validCell(c); err != nil {
		return err
	}
	m.cells = append(m.cells, c)
	return nil
}

// Step advances the simulation by one Dt: StepCells, then StepField.
func (m *Model) Step() {
	m.StepCells()
	m.StepField()
}

// StepCells is the cell half of Step: scripted genesis, cell life cycles
// and drift, merging, spontaneous genesis and the clock. After it, the
// cells, time and step count are the new step's, while the cloud water is
// still the old step's until StepField runs. A nest steps from the cells
// alone (Nest.Step, StepNests), so the nests of a step may advance while
// StepField runs.
func (m *Model) StepCells() {
	if m.fieldDue {
		panic("wrfsim: StepCells before the previous step's StepField")
	}
	dt := m.cfg.Dt
	m.cells = m.cfg.advanceCells(m.cells, &m.genesis, m.step)

	if m.cfg.MergeEnabled {
		m.mergeCells()
	}

	// Spontaneous genesis (Poisson with expectation SpawnRate per hour).
	if m.cfg.SpawnRate > 0 {
		expect := m.cfg.SpawnRate * dt / 3600
		for expect > 0 {
			if m.rng.Float64() < expect {
				m.cells = append(m.cells, m.randomCell())
			}
			expect--
		}
	}

	m.time += dt
	m.step++
	m.fieldDue = true
}

// StepField is the field half of Step, once per StepCells: source
// deposition from the cells StepCells left, then semi-Lagrangian advection
// and exponential decay. It reads the cells and the configuration and
// writes only the cloud water and its derived state, so it may run
// concurrently with nest steps that read the same model. The OLR
// diagnostic is left stale for OLR() to refresh.
func (m *Model) StepField() {
	if !m.fieldDue {
		panic("wrfsim: StepField without a StepCells")
	}
	dt := m.cfg.Dt
	// Source deposition.
	m.stamps.build(m.cells, dt, 1, geom.Point{}, m.qcloud.Bounds())
	m.stamps.addTo(m.qcloud)

	// Fused semi-Lagrangian advection + exponential decay on the ambient
	// flow, into the double buffer (no steady-state allocation).
	field.AdvectDecay(m.scratch, m.qcloud, field.AdvectSpec{
		UX: m.cfg.FlowU * dt, VY: m.cfg.FlowV * dt,
		GNX: m.cfg.NX, GNY: m.cfg.NY,
		Decay: math.Exp(-dt / m.cfg.DecayTau),
	})
	m.qcloud, m.scratch = m.scratch, m.qcloud
	m.olrStale = true
	m.fieldDue = false
}

// sourceStamps is one target field's share of a parent step's cloud-water
// source: one Gaussian stamp per active cell that reaches the field, built
// once per parent step and added in each of the target grid's substeps. The slice and its
// stamps' tables are reused from step to step.
type sourceStamps []field.GaussStamp

// build stamps every cell's source for a target grid refined ratio× over
// the parent with its (0, 0) sample at parent grid point origin. own is
// the part of that grid the target field holds, in the grid's own
// coordinates, the field's (0, 0) sample at own's north-west corner: the
// whole grid, bar the one-block reference that tests check grid-wide
// nest stamps against. A grid refined ratio× takes ratio substeps per
// parent step, and each deposits 1/ratio of the parent's per-step source.
func (s *sourceStamps) build(cells []Cell, dt float64, ratio int, origin geom.Point, own geom.Rect) {
	st := (*s)[:0]
	r := float64(ratio)
	for _, c := range cells {
		c.Peak /= r
		inten := c.Intensity() * dt / 60 // per-minute normalization
		if inten <= 0 {
			continue
		}
		cx := (c.X - float64(origin.X)) * r
		cy := (c.Y - float64(origin.Y)) * r
		rad := c.Radius * r
		x0, x1 := max(own.X0, int(cx-3*rad)), min(own.X1-1, int(cx+3*rad)+1)
		y0, y1 := max(own.Y0, int(cy-3*rad)), min(own.Y1-1, int(cy+3*rad)+1)
		if x1 < x0 || y1 < y0 {
			continue // the source misses this field
		}
		if len(st) < cap(st) {
			st = st[:len(st)+1] // keeps the old stamp's tables
		} else {
			st = append(st, field.GaussStamp{})
		}
		st[len(st)-1].Build(cx, cy, inten, 1/(2*rad*rad), x0, y0, x1, y1, own.X0, own.Y0)
	}
	*s = st
}

// addTo deposits the stamped sources into f, in cell order.
func (s sourceStamps) addTo(f *field.Field) {
	for i := range s {
		s[i].AddTo(f)
	}
}

// addWindow deposits the part of the stamped sources inside win into f, the
// grid-wide field they were built for, in cell order: one rank's window of
// stamps built once for the whole grid.
func (s sourceStamps) addWindow(f *field.Field, win geom.Rect) {
	for i := range s {
		s[i].AddWindow(f, win)
	}
}

func (m *Model) updateOLR() {
	for i, q := range m.qcloud.Data {
		olr := m.cfg.OLRClear - m.cfg.OLRPerQ*q
		if olr < m.cfg.OLRMin {
			olr = m.cfg.OLRMin
		}
		m.olr.Data[i] = olr
	}
	m.olrStale = false
}

// mergePeakCap saturates the combined source strength of a merged system
// (deep convection cannot intensify without bound).
const mergePeakCap = 6.0

// mergeCells coalesces pairs of cells whose cores overlap (centres closer
// than the sum of their radii) into a single system at the
// intensity-weighted centroid, conserving the combined source strength up
// to a saturation cap (deep convection cannot intensify without bound;
// without the cap, a system repeatedly renewed in place — a cyclone core —
// would grow exponentially). The merged system inherits the longer
// remaining lifetime, so clustering prolongs organized convection as
// observed in tropical systems.
func (m *Model) mergeCells() {
	merged := false
	for i := 0; i < len(m.cells); i++ {
		for j := i + 1; j < len(m.cells); j++ {
			a, b := m.cells[i], m.cells[j]
			dx, dy := a.X-b.X, a.Y-b.Y
			if dx*dx+dy*dy > (a.Radius+b.Radius)*(a.Radius+b.Radius) {
				continue
			}
			ia, ib := a.Intensity(), b.Intensity()
			wa, wb := ia+1e-12, ib+1e-12
			fused := Cell{
				X:      (a.X*wa + b.X*wb) / (wa + wb),
				Y:      (a.Y*wa + b.Y*wb) / (wa + wb),
				VX:     (a.VX*wa + b.VX*wb) / (wa + wb),
				VY:     (a.VY*wa + b.VY*wb) / (wa + wb),
				Radius: math.Max(a.Radius, b.Radius) * 1.15,
				Peak:   math.Min(a.Peak+b.Peak, mergePeakCap),
			}
			// Keep the phase of the longer-remaining life so the merged
			// system continues smoothly.
			remA, remB := a.Life-a.Age, b.Life-b.Age
			if remA >= remB {
				fused.Age, fused.Life = a.Age, a.Life
			} else {
				fused.Age, fused.Life = b.Age, b.Life
			}
			m.cells[i] = fused
			// Swap-with-last removal: O(1) instead of the O(n) shift of
			// append(cells[:j], cells[j+1:]...), which made heavy
			// clustering O(n³) worst case across a step.
			last := len(m.cells) - 1
			m.cells[j] = m.cells[last]
			m.cells = m.cells[:last]
			merged = true
			j--
		}
	}
	if merged {
		// Swap removal scrambles slice order, and cell order is the
		// deposit summation order: restore a deterministic order so seeded
		// runs stay reproducible across platforms and runs.
		slices.SortFunc(m.cells, compareCells)
	}
}

// compareCells is a total order over cell state used to keep the cell
// slice deterministic after merge compaction.
func compareCells(a, b Cell) int {
	if c := cmp.Compare(a.X, b.X); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Y, b.Y); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Age, b.Age); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Life, b.Life); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Peak, b.Peak); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Radius, b.Radius); c != 0 {
		return c
	}
	if c := cmp.Compare(a.VX, b.VX); c != 0 {
		return c
	}
	return cmp.Compare(a.VY, b.VY)
}

func (m *Model) randomCell() Cell {
	return Cell{
		X:      m.rng.Float64() * float64(m.cfg.NX),
		Y:      m.rng.Float64() * float64(m.cfg.NY),
		VX:     m.cfg.FlowU * (0.5 + m.rng.Float64()),
		VY:     m.cfg.FlowV * (0.5 + m.rng.Float64()),
		Radius: 3 + m.rng.Float64()*6,
		Peak:   0.5 + m.rng.Float64()*1.5,
		Life:   (1 + m.rng.Float64()*3) * 3600,
	}
}
