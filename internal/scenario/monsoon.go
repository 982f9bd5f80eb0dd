package scenario

import (
	"math/rand"

	"nestdiff/internal/wrfsim"
)

// TimedCell schedules a convective-cell genesis at a simulation step; a
// schedule drives the model as its wrfsim.Config.Genesis.
type TimedCell = wrfsim.TimedCell

// MonsoonConfig parameterizes the Mumbai-2005-like scripted scenario.
type MonsoonConfig struct {
	Seed  int64
	Steps int // total parent steps to cover
	// Domain extents in parent grid points (the wrfsim model's NX, NY).
	NX, NY int
	// Systems is the target number of simultaneously active organized
	// systems (the real traces had 4–5 on average, up to 7).
	Systems int
}

// DefaultMonsoonConfig matches the surrogate model's default domain and
// the paper's real-run statistics: the July 24–27 2005 period at
// 2-minute analysis cadence gave ≈100 processor reconfigurations with 4–7
// nests; at test scale we compress the schedule while keeping the
// concurrency and churn structure.
func DefaultMonsoonConfig() MonsoonConfig {
	return MonsoonConfig{
		Seed:    2607, // 26 July 2005, the Mumbai deluge date
		Steps:   600,
		NX:      180,
		NY:      105,
		Systems: 5,
	}
}

// MonsoonSchedule builds a deterministic genesis schedule that keeps about
// cfg.Systems organized cloud systems alive at any time, clustered in
// recurring genesis regions (west coast, Bay of Bengal, central belt) the
// way monsoon convection organizes. The schedule is ascending in AtStep,
// ready to be the model's wrfsim.Config.Genesis.
func MonsoonSchedule(cfg MonsoonConfig) []TimedCell {
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Genesis basins as fractions of the domain: (x, y, spread).
	basins := [][3]float64{
		{0.22, 0.55, 0.06}, // west coast / "Mumbai"
		{0.70, 0.45, 0.08}, // Bay of Bengal
		{0.45, 0.30, 0.07}, // central belt
		{0.60, 0.70, 0.08}, // north-east
		{0.30, 0.80, 0.06}, // north-west
	}
	var out []TimedCell
	// Average cell lifetime in steps decides the genesis rate needed to
	// sustain cfg.Systems concurrent systems.
	const meanLifeSteps = 90.0
	perStep := float64(cfg.Systems) / meanLifeSteps
	for step := 0; step < cfg.Steps; step++ {
		expect := perStep
		for expect > 0 {
			if rng.Float64() < expect {
				b := basins[rng.Intn(len(basins))]
				life := (0.6 + 0.8*rng.Float64()) * meanLifeSteps
				out = append(out, TimedCell{
					AtStep: step,
					Cell: wrfsim.Cell{
						X:      (b[0] + b[2]*rng.NormFloat64()) * float64(cfg.NX),
						Y:      (b[1] + b[2]*rng.NormFloat64()) * float64(cfg.NY),
						VX:     1.5e-3 * (0.5 + rng.Float64()),
						VY:     4e-4 * rng.NormFloat64(),
						Radius: 4 + rng.Float64()*6,
						Peak:   1.2 + rng.Float64()*1.8,
						Life:   life * 120, // steps → seconds at Dt = 120
					},
				})
			}
			expect--
		}
	}
	return out
}
