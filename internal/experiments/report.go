package experiments

import (
	"fmt"

	"nestdiff/internal/core"
	"nestdiff/internal/scenario"
)

// Settings are the parameters every section of the evaluation reads.
type Settings struct {
	Cases     int   // synthetic reconfiguration cases (paper: 70)
	Seed      int64 // scenario seed
	Steps     int   // monsoon steps of the real-trace experiment
	Reconfigs int   // reconfigurations of the dynamic-strategy study (paper: 12)
}

// Paper is the paper's setting: the one cmd/experiments runs by default and
// testdata/paper_tables.golden pins.
var Paper = Settings{Cases: 70, Seed: 1913, Steps: 300, Reconfigs: 12}

// Report is one run of the evaluation at one Settings. Each experiment runs
// on first use and is kept, so sections that read the same experiment share
// one run of it: the BG/L 1024 synthetic replay serves Table IV, Figs. 10
// and 11, the scaling study and the mapping ablation. A Report is not safe
// for concurrent use.
type Report struct {
	Settings
	memo map[string]any
}

// NewReport returns an empty report at the settings.
func NewReport(s Settings) *Report {
	return &Report{Settings: s, memo: map[string]any{}}
}

// cached returns the result kept under key, running f on first use.
func cached[T any](r *Report, key string, f func() (T, error)) (T, error) {
	if v, ok := r.memo[key]; ok {
		return v.(T), nil
	}
	v, err := f()
	if err != nil {
		return v, err
	}
	r.memo[key] = v
	return v, nil
}

// syntheticSets is the synthetic churn of n reconfiguration cases (n+1 nest
// sets) at the report's seed.
func (r *Report) syntheticSets(n int) ([]scenario.Set, error) {
	return cached(r, fmt.Sprint("sets/", n), func() ([]scenario.Set, error) {
		cfg := scenario.DefaultSyntheticConfig()
		cfg.Steps = n
		cfg.Seed = r.Seed
		return scenario.Generate(cfg)
	})
}

// lane is one tracker of a replay.
type lane struct {
	m        Machine
	strategy core.Strategy
	opts     core.Options
}

// replay feeds one set sequence through a tracker per lane, in lockstep,
// and calls step with every case's metrics, one per lane. The first set is
// the initial allocation: it moves no data, so it is not a case. Lanes are
// independent; each keeps its own accumulation order.
func replay(sets []scenario.Set, lanes []lane, step func(set scenario.Set, trs []*core.Tracker, sms []core.StepMetrics) error) ([]*core.Tracker, error) {
	var err error
	trs := make([]*core.Tracker, len(lanes))
	for k, l := range lanes {
		if trs[k], err = core.NewTracker(l.m.Grid, l.m.Net, l.m.Model, l.m.Oracle, l.strategy, l.opts); err != nil {
			return nil, err
		}
	}
	sms := make([]core.StepMetrics, len(lanes))
	for i, set := range sets {
		for k, tr := range trs {
			if sms[k], err = tr.Apply(set); err != nil {
				return nil, fmt.Errorf("experiments: %s %v step %d: %w", lanes[k].m.Name, lanes[k].strategy, i, err)
			}
		}
		if i == 0 {
			continue
		}
		if err := step(set, trs, sms); err != nil {
			return nil, err
		}
	}
	return trs, nil
}
