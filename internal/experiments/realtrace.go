package experiments

import (
	"fmt"

	"nestdiff/internal/core"
	"nestdiff/internal/geom"
	"nestdiff/internal/pda"
	"nestdiff/internal/scenario"
	"nestdiff/internal/wrfsim"
)

// RealTraceResult is the §V-D real-test-case comparison: the monsoon
// simulation is run once, the PDA-detected nest trace is recorded, and the
// identical trace is replayed through both strategies.
type RealTraceResult struct {
	*SyntheticResult
	// Reconfigurations counts adaptation points where the nest set or the
	// regions actually changed (the paper reports ≈100 for the real runs).
	Reconfigurations int
	MaxNests         int
}

// realTraceSets runs the scripted monsoon scenario and detection pipeline
// (model → split files → PDA → ROI matching) and returns the nest
// configuration at every analysis point. The trace depends only on the
// scenario seed, not on any allocation strategy, so it can be replayed
// fairly through every tracker.
func realTraceSets(mc scenario.MonsoonConfig, pg geom.Grid, maxNests int) ([]scenario.Set, error) {
	wcfg := wrfsim.DefaultConfig()
	wcfg.NX, wcfg.NY = mc.NX, mc.NY
	wcfg.SpawnRate = 0
	wcfg.Genesis = scenario.MonsoonSchedule(mc)
	wcfg.MergeEnabled = true // drifting systems may cluster (§I)
	m, err := wrfsim.NewModel(wcfg)
	if err != nil {
		return nil, err
	}
	opt := pda.DefaultOptions()
	var sets []scenario.Set
	var cur scenario.Set
	nextID := 1
	for step := 0; step < mc.Steps; step++ {
		m.Step()
		splits, err := m.Splits(pg)
		if err != nil {
			return nil, err
		}
		rects, _, err := pda.Analyze(splits, opt)
		if err != nil {
			return nil, err
		}
		if maxNests > 0 && len(rects) > maxNests {
			rects = rects[:maxNests]
		}
		cur = core.MatchROIs(cur, rects, &nextID)
		sets = append(sets, cur)
	}
	return sets, nil
}

// RealTrace reproduces the §V-D real test cases on BG/L 512 and 1024: the
// Mumbai-2005-calibrated monsoon trace of the report's Steps replayed
// through scratch and diffusion. The paper reports 14% (512 cores) and 12%
// (1024 cores) redistribution improvements.
func (r *Report) RealTrace() ([]*RealTraceResult, error) {
	return cached(r, "real", func() ([]*RealTraceResult, error) {
		mc := scenario.DefaultMonsoonConfig()
		mc.Steps = r.Steps
		var out []*RealTraceResult
		for _, cores := range []int{512, 1024} {
			m, err := BGL(cores)
			if err != nil {
				return nil, err
			}
			// The detection process grid is the machine's WRF decomposition,
			// which must fit the model domain.
			if m.Grid.Px > mc.NX || m.Grid.Py > mc.NY {
				return nil, fmt.Errorf("experiments: process grid %dx%d exceeds domain %dx%d",
					m.Grid.Px, m.Grid.Py, mc.NX, mc.NY)
			}
			sets, err := realTraceSets(mc, m.Grid, 9)
			if err != nil {
				return nil, err
			}
			base, err := runSets(m, sets)
			if err != nil {
				return nil, err
			}
			res := &RealTraceResult{SyntheticResult: base}
			for i := 1; i < len(sets); i++ {
				if setsDiffer(sets[i-1], sets[i]) {
					res.Reconfigurations++
				}
				res.MaxNests = max(res.MaxNests, len(sets[i]))
			}
			out = append(out, res)
		}
		return out, nil
	})
}

func setsDiffer(a, b scenario.Set) bool {
	if len(a) != len(b) {
		return true
	}
	for _, n := range a {
		o, ok := b.ByID(n.ID)
		if !ok || o.Region != n.Region {
			return true
		}
	}
	return false
}
