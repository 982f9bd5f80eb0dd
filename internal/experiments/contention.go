package experiments

import (
	"math"

	"nestdiff/internal/core"
	"nestdiff/internal/scenario"
)

// ContentionRow measures the dynamic strategy at one level of predictor
// miscalibration: the predictor assumes estFactor × the true aggregate
// contention bandwidth (1.0 = perfectly calibrated).
type ContentionRow struct {
	EstimateFactor float64
	CorrectPicks   int
	Total          int
	// ExcessPercent is how much the dynamic strategy's actual total
	// exceeds the per-step best candidate's (0 = oracle decisions).
	ExcessPercent float64
}

// Contention quantifies the sensitivity of §IV-C's dynamic selection to
// the quality of the redistribution-time prediction, on the dynamic study's
// reconfigurations (BG/L 1024). The paper reports 10/12 correct with its
// model; this sweep shows how the decision quality degrades as the
// predictor's contention estimate (1.0×, 1.5×, 3.0× the true one, or
// ignored) drifts from reality.
func (r *Report) Contention() ([]ContentionRow, error) {
	return cached(r, "contention", func() ([]ContentionRow, error) {
		m, err := BGL(1024)
		if err != nil {
			return nil, err
		}
		sets, err := r.syntheticSets(r.Reconfigs)
		if err != nil {
			return nil, err
		}
		base := core.DefaultOptions()
		rows := []ContentionRow{{EstimateFactor: 1.0}, {EstimateFactor: 1.5}, {EstimateFactor: 3.0}, {EstimateFactor: math.Inf(1)}}
		lanes := make([]lane, len(rows))
		for k, row := range rows {
			opts := base
			if math.IsInf(row.EstimateFactor, 1) {
				opts.PredictedContentionBytesPerSec = 0 // predictor ignores contention
			} else {
				opts.PredictedContentionBytesPerSec = base.ContentionBytesPerSec * row.EstimateFactor
			}
			lanes[k] = lane{m, core.Dynamic, opts}
		}
		actual, best := make([]float64, len(rows)), make([]float64, len(rows))
		_, err = replay(sets, lanes, func(_ scenario.Set, _ []*core.Tracker, sms []core.StepMetrics) error {
			for k, sm := range sms {
				rows[k].Total++
				if sm.DynamicCorrect {
					rows[k].CorrectPicks++
				}
				actual[k] += sm.ExecTime + sm.RedistTime
				stepBest := math.Inf(1)
				for _, v := range sm.CandidateTotals {
					stepBest = min(stepBest, v)
				}
				best[k] += stepBest
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for k := range rows {
			if best[k] > 0 {
				rows[k].ExcessPercent = 100 * (actual[k] - best[k]) / best[k]
			}
		}
		return rows, nil
	})
}
