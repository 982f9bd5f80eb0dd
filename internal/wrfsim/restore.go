package wrfsim

import (
	"fmt"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
)

// RestoreNest builds a serial nest from its state: the region it covers,
// its fine-resolution field, and its substep counter. It is the one nest
// constructor — SpawnNest passes a freshly refined field and step 0, the
// checkpoint codec the saved ones — and takes ownership of fine. A
// restored nest continues bit-identically to the one that was saved.
func RestoreNest(id int, region geom.Rect, fine *field.Field, steps int) (*Nest, error) {
	if region.Empty() {
		return nil, fmt.Errorf("wrfsim: empty nest region")
	}
	if fine == nil || fine.NX != region.Width()*NestRatio || fine.NY != region.Height()*NestRatio {
		return nil, fmt.Errorf("wrfsim: nest %d fine field does not match region %v at ratio %d",
			id, region, NestRatio)
	}
	if steps < 0 {
		return nil, fmt.Errorf("wrfsim: negative substep count %d", steps)
	}
	return &Nest{
		ID:      id,
		Region:  region,
		qcloud:  fine,
		scratch: field.New(fine.NX, fine.NY),
		steps:   steps,
	}, nil
}

// RestoreParallelNest builds a distributed nest from its state: the fine
// field, placed on the processor sub-rectangle, and the substep counter,
// restored so halo-exchange tags continue their sequence. It is the one
// distributed-nest constructor, like RestoreNest for serial nests, and
// like it takes ownership of fine.
func RestoreParallelNest(id int, region geom.Rect, pg geom.Grid, procs geom.Rect, fine *field.Field, steps int) (*ParallelNest, error) {
	if region.Empty() {
		return nil, fmt.Errorf("wrfsim: empty nest region")
	}
	if procs.Empty() || !pg.Bounds().ContainsRect(procs) {
		return nil, fmt.Errorf("wrfsim: invalid processor sub-rectangle %v", procs)
	}
	if fine == nil || fine.NX != region.Width()*NestRatio || fine.NY != region.Height()*NestRatio {
		return nil, fmt.Errorf("wrfsim: nest %d fine field does not match region %v at ratio %d",
			id, region, NestRatio)
	}
	if steps < 0 {
		return nil, fmt.Errorf("wrfsim: negative substep count %d", steps)
	}
	n := &ParallelNest{
		ID:     id,
		Region: region,
		pg:     pg,
		nx:     fine.NX,
		ny:     fine.NY,
		steps:  steps,
	}
	if err := n.place(fine, procs); err != nil {
		return nil, err
	}
	return n, nil
}

// RNGState exposes the PRNG state for checkpointing.
func (m *Model) RNGState() uint64 { return m.rng.State }

// RestoreModel rebuilds a model from previously checkpointed state — the
// model half of the pipeline checkpoint codec. It takes ownership of
// qcloud and cells. cfg is checked like NewModel's, and the Genesis
// schedule resumes at its first entry due at or after step.
func RestoreModel(cfg Config, qcloud []float64, cells []Cell, rngState uint64, simTime float64, step int) (*Model, error) {
	// Bound the allocation implied by the decoded configuration before
	// trusting it (same guard as the split-file parser).
	if cfg.NX <= 0 || cfg.NY <= 0 || cfg.NX*cfg.NY > 1<<24 {
		return nil, fmt.Errorf("wrfsim: implausible checkpoint domain %dx%d", cfg.NX, cfg.NY)
	}
	m, err := NewModel(cfg)
	if err != nil {
		return nil, err
	}
	if len(qcloud) != len(m.qcloud.Data) {
		return nil, fmt.Errorf("wrfsim: checkpoint field has %d samples for a %dx%d domain",
			len(qcloud), cfg.NX, cfg.NY)
	}
	copy(m.qcloud.Data, qcloud)
	m.cells = cells
	m.rng.State = rngState
	m.time = simTime
	m.step = step
	for m.genesis < len(cfg.Genesis) && cfg.Genesis[m.genesis].AtStep < step {
		m.genesis++
	}
	m.updateOLR()
	return m, nil
}
