package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"nestdiff/internal/wrfsim"
)

// CycloneConfig parameterizes the cyclone-track scenario: one intense,
// long-lived system crossing the domain. It exercises the framework's
// nest-follow behaviour — because a WRF nest domain is fixed once spawned,
// a moving system is tracked by a sequence of delete/respawn
// reconfigurations, each redistributing the surviving nests.
type CycloneConfig struct {
	Seed  int64
	Steps int
	// Domain extents in parent grid points.
	NX, NY int
	// Entry and exit fractions of the domain (the track endpoints).
	FromX, FromY float64
	ToX, ToY     float64
}

// DefaultCycloneConfig returns a Bay-of-Bengal-style landfalling track:
// entering at the south-east, curving to the north-west over the run.
func DefaultCycloneConfig() CycloneConfig {
	return CycloneConfig{
		Seed:  1999, // the Odisha super-cyclone year
		Steps: 400,
		NX:    180, NY: 105,
		FromX: 0.85, FromY: 0.35,
		ToX: 0.35, ToY: 0.75,
	}
}

// CycloneSchedule builds the genesis schedule: a core system renewed
// periodically along the track (a cyclone outlives any single convective
// cell) plus rain-band cells flaring around it.
func CycloneSchedule(cfg CycloneConfig) []TimedCell {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []TimedCell
	const renewEvery = 40 // steps between core renewals
	total := float64(cfg.Steps)
	for step := 0; step < cfg.Steps; step += renewEvery {
		f := float64(step) / total
		cx := (cfg.FromX + (cfg.ToX-cfg.FromX)*f) * float64(cfg.NX)
		cy := (cfg.FromY + (cfg.ToY-cfg.FromY)*f) * float64(cfg.NY)
		// Track velocity in cells per second at Dt=120.
		vx := (cfg.ToX - cfg.FromX) * float64(cfg.NX) / (total * 120)
		vy := (cfg.ToY - cfg.FromY) * float64(cfg.NY) / (total * 120)
		out = append(out, TimedCell{
			AtStep: step,
			Cell: wrfsim.Cell{
				X: cx, Y: cy, VX: vx, VY: vy,
				Radius: 6 + rng.Float64()*2,
				Peak:   2.5 + rng.Float64(),
				Life:   (renewEvery + 30) * 120,
			},
		})
		// Rain bands: smaller cells around the core.
		for b := 0; b < 2; b++ {
			out = append(out, TimedCell{
				AtStep: step + 5 + rng.Intn(renewEvery-10),
				Cell: wrfsim.Cell{
					X: cx + (rng.Float64()-0.5)*24, Y: cy + (rng.Float64()-0.5)*16,
					VX: vx, VY: vy,
					Radius: 2.5 + rng.Float64()*2,
					Peak:   0.8 + rng.Float64()*0.6,
					Life:   (10 + rng.Float64()*20) * 120,
				},
			})
		}
	}
	sortSchedule(out)
	return out
}

// sortSchedule orders a genesis schedule by step (stable), the invariant
// every schedule consumer relies on.
func sortSchedule(s []TimedCell) {
	sort.SliceStable(s, func(i, j int) bool { return s[i].AtStep < s[j].AtStep })
}

// BurstConfig parameterizes the convective-burst scenario: long quiet
// phases punctuated by sudden multi-cell outbreaks — the worst case for
// the reallocation machinery, because many nests appear and disappear at
// the same adaptation points.
type BurstConfig struct {
	Seed   int64
	Steps  int
	NX, NY int
	// Bursts is the number of outbreaks; each spawns CellsPerBurst cells
	// at nearly the same step, scattered over the domain.
	Bursts        int
	CellsPerBurst int
}

// DefaultBurstConfig returns four outbreaks of five systems each.
func DefaultBurstConfig() BurstConfig {
	return BurstConfig{
		Seed:  77,
		Steps: 480,
		NX:    180, NY: 105,
		Bursts:        4,
		CellsPerBurst: 5,
	}
}

// BurstSchedule builds the outbreak schedule.
func BurstSchedule(cfg BurstConfig) []TimedCell {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []TimedCell
	for b := 0; b < cfg.Bursts; b++ {
		at := (b*cfg.Steps)/cfg.Bursts + 10
		for c := 0; c < cfg.CellsPerBurst; c++ {
			out = append(out, TimedCell{
				AtStep: at + rng.Intn(5),
				Cell: wrfsim.Cell{
					X:      (0.1 + 0.8*rng.Float64()) * float64(cfg.NX),
					Y:      (0.1 + 0.8*rng.Float64()) * float64(cfg.NY),
					VX:     1.5e-3 * rng.Float64(),
					VY:     4e-4 * (rng.Float64() - 0.5),
					Radius: 3 + rng.Float64()*4,
					Peak:   1.2 + rng.Float64()*1.5,
					Life:   (40 + rng.Float64()*40) * 120,
				},
			})
		}
	}
	sortSchedule(out)
	return out
}

// Scripted resolves a scripted scenario by name — monsoon, cyclone or
// burst, at its default configuration with the given length and seed — to
// its genesis schedule and the domain extents it was designed for.
func Scripted(name string, steps int, seed int64) ([]TimedCell, int, int, error) {
	switch strings.ToLower(name) {
	case "monsoon":
		mc := DefaultMonsoonConfig()
		mc.Steps, mc.Seed = steps, seed
		return MonsoonSchedule(mc), mc.NX, mc.NY, nil
	case "cyclone":
		cc := DefaultCycloneConfig()
		cc.Steps, cc.Seed = steps, seed
		return CycloneSchedule(cc), cc.NX, cc.NY, nil
	case "burst":
		bc := DefaultBurstConfig()
		bc.Steps, bc.Seed = steps, seed
		return BurstSchedule(bc), bc.NX, bc.NY, nil
	}
	return nil, 0, 0, fmt.Errorf("scenario: unknown scripted scenario %q (want monsoon, cyclone or burst)", name)
}
