package experiments

import (
	"fmt"

	"nestdiff/internal/geom"
	"nestdiff/internal/pda"
	"nestdiff/internal/scenario"
	"nestdiff/internal/wrfsim"
)

// Fig9Result compares the two clustering policies of Fig. 9 over a series
// of monsoon snapshots: the simple 2-hop-only baseline (a) produces
// spatially overlapping clusters far more often than the 1+2-hop method
// with the 30% mean-deviation guard (b). The paper shows a single
// snapshot; the aggregate makes the comparison robust, and Showcase*
// records one snapshot that reproduces the figure exactly (our clusters
// disjoint, the baseline's overlapping).
type Fig9Result struct {
	Snapshots int
	// Total overlapping cluster pairs across all snapshots.
	OursOverlapsTotal   int
	SimpleOverlapsTotal int

	// Showcase snapshot reproducing the figure.
	ShowcaseStep           int
	ShowcaseOursRects      []geom.Rect
	ShowcaseSimpleRects    []geom.Rect
	ShowcaseSimpleOverlaps int
}

// fig9ModelConfig returns the compact-storm configuration used for the
// clustering study: organized systems with sharp OLR signatures, so that
// subdomain clusters correspond to distinct storms as in the paper's WRF
// snapshot.
func fig9ModelConfig(mc scenario.MonsoonConfig) wrfsim.Config {
	cfg := wrfsim.DefaultConfig()
	cfg.NX, cfg.NY = mc.NX, mc.NY
	cfg.SpawnRate = 0
	cfg.DecayTau = 2400
	cfg.OLRPerQ = 10
	return cfg
}

// Fig9 runs the scripted monsoon scenario, clustering the split-file
// aggregates with both policies at regular snapshots.
func (r *Report) Fig9() (*Fig9Result, error) { return cached(r, "fig9", fig9) }

func fig9() (*Fig9Result, error) {
	mc := scenario.DefaultMonsoonConfig()
	mc.Steps = 400
	sched := scenario.MonsoonSchedule(mc)
	m, err := wrfsim.NewModel(fig9ModelConfig(mc))
	if err != nil {
		return nil, err
	}
	opt := pda.DefaultOptions()
	opt.OLRFractionThreshold = 0.05
	pg := geom.NewGrid(18, 15)

	res := &Fig9Result{}
	si := 0
	for step := 0; step < mc.Steps; step++ {
		for si < len(sched) && sched[si].AtStep == step {
			c := sched[si].Cell
			c.Radius *= 0.7 // compact organized systems
			if err := m.InjectCell(c); err != nil {
				return nil, err
			}
			si++
		}
		m.Step()
		if step < 100 || step%10 != 0 {
			continue // let the first systems organize; then sample sparsely
		}
		splits, err := m.Splits(pg)
		if err != nil {
			return nil, err
		}
		var infos []pda.SubdomainInfo
		for _, s := range splits {
			info := pda.AnalyzeSplit(s, opt)
			if info.OLRFraction > 0 {
				infos = append(infos, info)
			}
		}
		if len(infos) == 0 {
			continue
		}
		ours := pda.NNC(infos, opt)
		simple := pda.SimpleNNC(infos, opt)
		oOv := pda.OverlappingPairs(ours)
		sOv := pda.OverlappingPairs(simple)
		res.Snapshots++
		res.OursOverlapsTotal += oOv
		res.SimpleOverlapsTotal += sOv
		if res.ShowcaseStep == 0 && oOv == 0 && sOv > 0 {
			res.ShowcaseStep = step
			res.ShowcaseSimpleOverlaps = sOv
			for _, c := range ours {
				res.ShowcaseOursRects = append(res.ShowcaseOursRects, c.BoundingRect())
			}
			for _, c := range simple {
				res.ShowcaseSimpleRects = append(res.ShowcaseSimpleRects, c.BoundingRect())
			}
		}
	}
	if res.Snapshots == 0 {
		return nil, fmt.Errorf("experiments: monsoon run produced no cloudy snapshots")
	}
	return res, nil
}
