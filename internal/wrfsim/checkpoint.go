package wrfsim

import (
	"encoding/gob"
	"fmt"
	"io"
)

// checkpoint is the gob-serialized form of a Model. Every field of the
// simulation state is captured — including the PRNG state — so a restored
// model continues bit-identically to an uninterrupted run.
type checkpoint struct {
	Version int
	Cfg     Config
	QCloud  []float64
	Cells   []Cell
	RNG     uint64
	Time    float64
	Step    int
}

const checkpointVersion = 1

// Save writes a checkpoint of the model.
func (m *Model) Save(w io.Writer) error {
	cp := checkpoint{
		Version: checkpointVersion,
		Cfg:     m.cfg,
		QCloud:  append([]float64(nil), m.qcloud.Data...),
		Cells:   append([]Cell(nil), m.cells...),
		RNG:     m.rng.State,
		Time:    m.time,
		Step:    m.step,
	}
	if err := gob.NewEncoder(w).Encode(cp); err != nil {
		return fmt.Errorf("wrfsim: save checkpoint: %w", err)
	}
	return nil
}

// Load restores a model from a checkpoint written by Save.
func Load(r io.Reader) (*Model, error) {
	var cp checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("wrfsim: load checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("wrfsim: unsupported checkpoint version %d", cp.Version)
	}
	return RestoreModel(cp.Cfg, cp.QCloud, cp.Cells, cp.RNG, cp.Time, cp.Step)
}

// RNGState exposes the PRNG state for checkpointing.
func (m *Model) RNGState() uint64 { return m.rng.State }

// RestoreModel rebuilds a model from previously checkpointed state (the
// non-gob counterpart of Load, used by the binary checkpoint codec). It
// takes ownership of qcloud and cells. cfg is checked like NewModel's, and
// the Genesis schedule resumes at its first entry due at or after step.
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
