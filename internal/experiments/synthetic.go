package experiments

import (
	"nestdiff/internal/core"
	"nestdiff/internal/scenario"
	"nestdiff/internal/stats"
	"nestdiff/internal/topology"
)

// CaseMetrics compares the two strategies on one reconfiguration case.
type CaseMetrics struct {
	Case int
	// Redistribution time (seconds, actual model with contention).
	ScratchRedist   float64
	DiffusionRedist float64
	// Average hop-bytes (Fig. 10 series).
	ScratchHopBytes   float64
	DiffusionHopBytes float64
	// Sender/receiver overlap percent (Fig. 11 series).
	ScratchOverlap   float64
	DiffusionOverlap float64
	// Execution time of the resulting allocation.
	ScratchExec   float64
	DiffusionExec float64
	// Longest route of the redistribution, in hops.
	ScratchMaxHops   int
	DiffusionMaxHops int
}

// SyntheticResult aggregates a synthetic churn run on one machine.
type SyntheticResult struct {
	Machine string
	Cores   int
	Cases   []CaseMetrics
	// RedistImprovementPercent is the mean per-case improvement of
	// diffusion over scratch in redistribution time (Table IV).
	RedistImprovementPercent float64
	// TotalRedistImprovementPercent compares the summed redistribution
	// times instead — robust to near-zero cases; used for the real-trace
	// headline.
	TotalRedistImprovementPercent float64
	ScratchRedistTotal            float64
	DiffusionRedistTotal          float64
	// ExecPenaltyPercent is the mean increase in execution time of
	// diffusion over scratch (§V-D reports ≈4%).
	ExecPenaltyPercent float64
	// Mean series values (Fig. 10 / Fig. 11 discussion: 5.25 vs 2.44
	// hop-bytes; overlap higher for diffusion).
	MeanScratchHopBytes   float64
	MeanDiffusionHopBytes float64
	MeanScratchOverlap    float64
	MeanDiffusionOverlap  float64
	// Mean longest route per case (§IV-B's scalability argument).
	MeanScratchMaxHops   float64
	MeanDiffusionMaxHops float64
}

// synthetic replays the report's synthetic churn on m through a scratch
// and a diffusion tracker, kept per machine name.
func (r *Report) synthetic(m Machine) (*SyntheticResult, error) {
	return cached(r, "synthetic/"+m.Name, func() (*SyntheticResult, error) {
		sets, err := r.syntheticSets(r.Cases)
		if err != nil {
			return nil, err
		}
		return runSets(m, sets)
	})
}

// runSets feeds an identical set sequence through both pure strategies and
// compares them per reconfiguration case.
func runSets(m Machine, sets []scenario.Set) (*SyntheticResult, error) {
	res := &SyntheticResult{Machine: m.Name, Cores: m.Grid.Size()}
	opts := core.DefaultOptions()
	lanes := []lane{{m, core.Scratch, opts}, {m, core.Diffusion, opts}}
	_, err := replay(sets, lanes, func(_ scenario.Set, _ []*core.Tracker, sms []core.StepMetrics) error {
		s, d := sms[0], sms[1]
		res.Cases = append(res.Cases, CaseMetrics{
			Case:              len(res.Cases) + 1,
			ScratchRedist:     s.RedistTime,
			DiffusionRedist:   d.RedistTime,
			ScratchHopBytes:   s.Redist.AvgHopBytes,
			DiffusionHopBytes: d.Redist.AvgHopBytes,
			ScratchOverlap:    s.Redist.OverlapPercent,
			DiffusionOverlap:  d.Redist.OverlapPercent,
			ScratchExec:       s.ExecTime,
			DiffusionExec:     d.ExecTime,
			ScratchMaxHops:    s.Redist.MaxHops,
			DiffusionMaxHops:  d.Redist.MaxHops,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res.finish()
}

func (res *SyntheticResult) finish() (*SyntheticResult, error) {
	col := func(f func(CaseMetrics) float64) []float64 {
		out := make([]float64, len(res.Cases))
		for i, c := range res.Cases {
			out[i] = f(c)
		}
		return out
	}
	sRe := col(func(c CaseMetrics) float64 { return c.ScratchRedist })
	dRe := col(func(c CaseMetrics) float64 { return c.DiffusionRedist })
	imp, err := stats.MeanImprovementPercent(sRe, dRe)
	if err != nil {
		return nil, err
	}
	res.RedistImprovementPercent = imp
	for i := range sRe {
		res.ScratchRedistTotal += sRe[i]
		res.DiffusionRedistTotal += dRe[i]
	}
	res.TotalRedistImprovementPercent = stats.ImprovementPercent(res.ScratchRedistTotal, res.DiffusionRedistTotal)
	pen, err := stats.MeanImprovementPercent(
		col(func(c CaseMetrics) float64 { return c.ScratchExec }),
		col(func(c CaseMetrics) float64 { return c.DiffusionExec }))
	if err != nil {
		return nil, err
	}
	res.ExecPenaltyPercent = -pen // positive = diffusion slower
	res.MeanScratchHopBytes = stats.Mean(col(func(c CaseMetrics) float64 { return c.ScratchHopBytes }))
	res.MeanDiffusionHopBytes = stats.Mean(col(func(c CaseMetrics) float64 { return c.DiffusionHopBytes }))
	res.MeanScratchOverlap = stats.Mean(col(func(c CaseMetrics) float64 { return c.ScratchOverlap }))
	res.MeanDiffusionOverlap = stats.Mean(col(func(c CaseMetrics) float64 { return c.DiffusionOverlap }))
	res.MeanScratchMaxHops = stats.Mean(col(func(c CaseMetrics) float64 { return float64(c.ScratchMaxHops) }))
	res.MeanDiffusionMaxHops = stats.Mean(col(func(c CaseMetrics) float64 { return float64(c.DiffusionMaxHops) }))
	return res, nil
}

// Table4 regenerates Table IV: mean redistribution-time improvement of
// tree-based hierarchical diffusion over partition from scratch for the
// synthetic test cases on BG/L 1024, BG/L 256 and fist 256. The first
// result is the BG/L 1024 replay behind Figs. 10 and 11.
func (r *Report) Table4() ([]*SyntheticResult, error) {
	var ms []Machine
	for _, c := range []struct {
		mk    func(int) (Machine, error)
		cores int
	}{{BGL, 1024}, {BGL, 256}, {Fist, 256}} {
		m, err := c.mk(c.cores)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	return r.variants(ms...)
}

// variants is the synthetic replay on each machine.
func (r *Report) variants(ms ...Machine) ([]*SyntheticResult, error) {
	out := make([]*SyntheticResult, len(ms))
	for i, m := range ms {
		var err error
		if out[i], err = r.synthetic(m); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// LinkContention replays the synthetic churn on BG/L 1024 priced first by
// §IV-C1's per-pair maximum (the machine itself), then by dimension-ordered
// routing and per-link byte loads (topology.DORTorus: an exchange takes its
// most-loaded link's drain time), to show the diffusion advantage is a
// property of the traffic pattern, not of the cost model.
func (r *Report) LinkContention() ([]*SyntheticResult, error) {
	m, err := BGL(1024)
	if err != nil {
		return nil, err
	}
	dor := m
	dor.Name += " (DOR)"
	if dor.Net, err = topology.NewDORTorus(m.Net.(*topology.Torus3D)); err != nil {
		return nil, err
	}
	return r.variants(m, dor)
}
