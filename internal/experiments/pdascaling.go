package experiments

import (
	"fmt"

	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
	"nestdiff/internal/pda"
	"nestdiff/internal/scenario"
	"nestdiff/internal/topology"
	"nestdiff/internal/wrfsim"
)

// PDAScalingRow compares the two parallel-analysis variants at one
// analysis rank count: the paper's Algorithm 1 (parallel aggregation,
// sequential NNC at the root) versus the parallel-clustering extension
// (local NNC per rank + cluster-level merge at the root), which the paper
// names as future work.
type PDAScalingRow struct {
	Ranks         int
	RootNNCClock  float64 // modelled seconds, Algorithm 1
	ParallelClock float64 // modelled seconds, parallel NNC
	RootNNCNests  int
	ParallelNests int
}

// PDAScaling builds a many-storm snapshot on a fine split-file grid and
// runs both analysis variants on 1 to 180 analysis ranks.
func (r *Report) PDAScaling() ([]PDAScalingRow, error) { return cached(r, "pdascale", pdaScaling) }

func pdaScaling() ([]PDAScalingRow, error) {
	mc := scenario.DefaultMonsoonConfig()
	mc.Steps = 220
	sched := scenario.MonsoonSchedule(mc)
	cfg := fig9ModelConfig(mc)
	m, err := wrfsim.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	si := 0
	for step := 0; step < mc.Steps; step++ {
		for si < len(sched) && sched[si].AtStep == step {
			c := sched[si].Cell
			c.Radius *= 0.7
			if err := m.InjectCell(c); err != nil {
				return nil, err
			}
			si++
		}
		m.Step()
	}
	pg := geom.NewGrid(36, 15) // 540 split files
	splits, err := m.Splits(pg)
	if err != nil {
		return nil, err
	}
	loader := func(rank int) (wrfsim.Split, error) {
		if rank < 0 || rank >= len(splits) {
			return wrfsim.Split{}, fmt.Errorf("no split for rank %d", rank)
		}
		return splits[rank], nil
	}
	opt := pda.DefaultOptions()
	opt.OLRFractionThreshold = 0.05

	var rows []PDAScalingRow
	for _, n := range []int{1, 4, 16, 60, 180} {
		newWorld := func() (*mpi.World, error) {
			net, err := topology.NewSwitched(n, 8, topology.DefaultSwitchedParams())
			if err != nil {
				return nil, err
			}
			return mpi.NewWorld(n, mpi.Config{Net: net})
		}
		w, err := newWorld()
		if err != nil {
			return nil, err
		}
		root, err := pda.RunParallel(w, pg, loader, opt)
		if err != nil {
			return nil, err
		}
		w, err = newWorld()
		if err != nil {
			return nil, err
		}
		par, err := pda.RunParallelNNC(w, pg, loader, opt)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PDAScalingRow{
			Ranks:         n,
			RootNNCClock:  root.RootClock,
			ParallelClock: par.RootClock,
			RootNNCNests:  len(root.Rects),
			ParallelNests: len(par.Rects),
		})
	}
	return rows, nil
}
