package experiments

import (
	"slices"

	"nestdiff/internal/core"
	"nestdiff/internal/scenario"
	"nestdiff/internal/stats"
)

// DynamicResult is the §V-F / Fig. 12 study: the same reconfiguration
// sequence through all three strategies, with the dynamic strategy's
// decision quality and the execution-time predictor's Pearson correlation.
type DynamicResult struct {
	Machine          string
	Reconfigurations int

	// Fig. 12 bars: total execution and redistribution time per strategy.
	ExecTotal   map[string]float64
	RedistTotal map[string]float64

	// Dynamic decision quality (paper: 10 of 12 correct; scratch picked
	// twice, tree-based ten times).
	PickedScratch   int
	PickedDiffusion int
	CorrectPicks    int

	// PearsonR is the correlation between predicted and actual execution
	// times across all strategy steps (paper: ≈0.9).
	PearsonR float64
}

// Dynamic reproduces the dynamic-strategy experiment: the report's
// Reconfigs (12 in the paper) through all three strategies on BG/L 1024.
func (r *Report) Dynamic() (*DynamicResult, error) {
	return cached(r, "dynamic", func() (*DynamicResult, error) {
		m, err := BGL(1024)
		if err != nil {
			return nil, err
		}
		sets, err := r.syntheticSets(r.Reconfigs)
		if err != nil {
			return nil, err
		}
		res := &DynamicResult{
			Machine:          m.Name,
			Reconfigurations: r.Reconfigs,
			ExecTotal:        map[string]float64{},
			RedistTotal:      map[string]float64{},
		}
		opts := core.DefaultOptions()
		strategies := []core.Strategy{core.Diffusion, core.Scratch, core.Dynamic}
		lanes := make([]lane, len(strategies))
		for k, s := range strategies {
			lanes[k] = lane{m, s, opts}
		}
		// Actual vs predicted execution time per nest (the paper validates
		// the predictor over nest configurations), kept per strategy and
		// correlated strategy after strategy.
		predExec, actExec := make([][]float64, len(lanes)), make([][]float64, len(lanes))
		trs, err := replay(sets, lanes, func(set scenario.Set, trs []*core.Tracker, sms []core.StepMetrics) error {
			for k, tr := range trs {
				for _, spec := range set {
					rect, ok := tr.Allocation().Rects[spec.ID]
					if !ok {
						continue
					}
					nx, ny := spec.FineSize(opts.Ratio)
					p, err := m.Model.PredictRect(nx, ny, rect)
					if err != nil {
						return err
					}
					predExec[k] = append(predExec[k], p)
					actExec[k] = append(actExec[k], m.Oracle.ExecTime(nx, ny, rect.Area(), rect.AspectRatio()))
				}
			}
			dyn := sms[2]
			switch dyn.Used {
			case core.Scratch:
				res.PickedScratch++
			case core.Diffusion:
				res.PickedDiffusion++
			}
			if dyn.DynamicCorrect {
				res.CorrectPicks++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for k, tr := range trs {
			res.ExecTotal[strategies[k].String()], res.RedistTotal[strategies[k].String()] = tr.Totals()
		}
		if res.PearsonR, err = stats.Pearson(slices.Concat(actExec...), slices.Concat(predExec...)); err != nil {
			return nil, err
		}
		return res, nil
	})
}
