package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"nestdiff/internal/core"
	"nestdiff/internal/elastic"
	"nestdiff/internal/scenario"
	"nestdiff/internal/service"
)

// churnDriver drives realloc-churn: no weather model, one core.Tracker
// applying the generated sets on a large torus, Allocation.Validate after
// every Apply.
type churnDriver struct {
	spec workloadSpec
	// inputs holds, per episode, the synthetic reconfiguration sequence of
	// the paper's Table IV generator: Sets+1 nest configurations,
	// consecutive pairs being the adaptation points.
	inputs episodeCache[[]scenario.Set]
	// checked records the episodes whose sets already passed the
	// diffusion-beats-scratch check (it reruns the sets twice, untimed).
	checked map[int]bool
}

func (d *churnDriver) input(e *env, episode int) ([]scenario.Set, error) {
	return d.inputs.get(episode, func() ([]scenario.Set, error) {
		return churnSets(subSeed(e.seed, seedChurn, int64(episode)), d.spec.Sets)
	})
}

// churnSets generates n adaptation points from the seed.
func churnSets(seed int64, n int) ([]scenario.Set, error) {
	cfg := scenario.DefaultSyntheticConfig()
	cfg.Seed = seed
	cfg.Steps = n
	return scenario.Generate(cfg)
}

// newTracker builds the modelled machine of the given size and a tracker
// on it.
func newTracker(cores int, machine string, strat core.Strategy) (*core.Tracker, error) {
	m, err := elastic.BuildMachine(cores, machine, 0)
	if err != nil {
		return nil, err
	}
	return core.NewTracker(m.Grid, m.Net, m.Model, m.Oracle, strat, core.DefaultOptions())
}

// applyAll runs every set through the tracker, validating the allocation
// after each Apply, and returns the per-Apply durations (ms), the time of
// the whole loop, and the step metrics.
func applyAll(out *roundOut, rec *recorder, tr *core.Tracker, sets []scenario.Set, label string) ([]float64, time.Duration, []core.StepMetrics) {
	durs := make([]float64, 0, len(sets))
	start := time.Now()
	for i, set := range sets {
		op := rec.begin("apply"+label, 0, i)
		sp := rec.begin("core.Tracker.Apply"+label, op, i)
		t := time.Now()
		_, err := tr.Apply(set)
		dur := time.Since(t)
		rec.end(sp)
		out.attempted++
		if err != nil {
			rec.end(op)
			out.fail("apply%s %d: %v", label, i, err)
			break
		}
		sp = rec.begin("alloc.Allocation.Validate"+label, op, i)
		err = tr.Allocation().Validate()
		rec.end(sp)
		rec.end(op)
		if err != nil {
			out.fail("apply%s %d: allocation invalid: %v", label, i, err)
		}
		durs = append(durs, ms(dur))
	}
	return durs, time.Since(start), tr.Steps()
}

func (d *churnDriver) round(e *env, episode int, traced bool) (roundOut, error) {
	out := newRoundOut()
	sets, err := d.input(e, episode)
	if err != nil {
		return out, err
	}
	strat, err := service.ParseStrategy(d.spec.Strategy)
	if err != nil {
		return out, err
	}
	rec := e.recorder(traced)

	resetPeakRSS()
	var tr *core.Tracker
	out.values["setup_s"], err = medianSetup(func() (err error) { tr, err = newTracker(d.spec.Cores, d.spec.Machine, strat); return })
	if err != nil {
		return out, err
	}

	durs, wall, steps := applyAll(&out, rec, tr, sets, "")
	out.values["adapt_p50_ms"] = median(durs)
	out.samples["adapt_p50_ms"] = durs
	out.values["adapts_per_s"] = float64(len(durs)) / wall.Seconds()
	if traced {
		// No pipeline here: an adaptation point is the Apply (reallocation)
		// plus the harness's Validate, and that is the whole budget.
		apply := 0.0
		for _, d := range durs {
			apply += d
		}
		out.layer["core.share.realloc"] = apply / ms(wall)
		out.layer["core.share.other"] = 1 - apply/ms(wall)
		out.layer["core.share.sum"] = 1
	}

	// The paper's modelled quantities and the dynamic strategy's regret:
	// how much worse the picked candidate was than the better of the two,
	// over the steps where both were evaluated.
	var redist, hopBytes, picked, best float64
	var total, moved, local, msgs, correct, dynamic int
	h := fnv.New64a()
	for _, sm := range steps {
		redist += sm.RedistTime
		hopBytes += sm.Redist.HopBytes
		total += sm.Redist.TotalBytes
		moved += sm.Redist.RemoteBytes
		local += sm.Redist.LocalBytes
		msgs += sm.Redist.Messages
		fmt.Fprintf(h, "%d|%x|%x|%x;", sm.Used, sm.RedistTime, sm.ExecTime, sm.Redist.HopBytes)
		if sm.CandidateTotals != nil {
			dynamic++
			if sm.DynamicCorrect {
				correct++
			}
			picked += sm.RedistTime + sm.ExecTime
			best += min(sm.CandidateTotals[core.Scratch], sm.CandidateTotals[core.Diffusion])
		}
	}
	out.digest = fmt.Sprintf("%016x", h.Sum64())
	out.values["redist_model_s"] = redist
	out.values["hop_bytes_avg"] = ratio(hopBytes, float64(total))
	out.values["dynamic_regret_pct"] = 100 * ratio(picked-best, best)
	out.layer["core.dynamic_correct_pct"] = 100 * ratio(float64(correct), float64(dynamic))
	out.layer["redist.bytes_moved"] = float64(moved)
	out.layer["redist.messages"] = float64(msgs)
	out.layer["redist.overlap_pct"] = 100 * ratio(float64(local), float64(total))
	out.layer["core.adaptations"] = float64(len(steps))

	// The same sets on the reference grid size: the ratio of the two
	// medians is what makes this workload discriminate (the algorithm
	// costs an order of magnitude more per call on the larger torus).
	ref, err := newTracker(d.spec.RefCores, d.spec.Machine, strat)
	if err != nil {
		return out, err
	}
	refDurs, _, _ := applyAll(&out, rec, ref, sets, fmt.Sprintf(".p%d", d.spec.RefCores))
	out.layer["core.apply_ref_p50_ms"] = median(refDurs)
	out.samples["core.apply_ref_p50_ms"] = refDurs
	out.values["peak_rss_mb"] = vmHWMMB(os.Getpid())

	if !d.checked[episode] {
		if err := d.checkDiffusionBeatsScratch(&out, sets); err != nil {
			return out, err
		}
		d.checked[episode] = true
	}
	return out, nil
}

// checkDiffusionBeatsScratch replays the sets under the pure scratch and
// pure diffusion strategies on the reference grid and checks the paper's
// Table IV claim: diffusion's total redistribution time is lower.
func (d *churnDriver) checkDiffusionBeatsScratch(out *roundOut, sets []scenario.Set) error {
	totals := map[core.Strategy]float64{}
	for _, strat := range []core.Strategy{core.Scratch, core.Diffusion} {
		tr, err := newTracker(d.spec.RefCores, d.spec.Machine, strat)
		if err != nil {
			return err
		}
		for i, set := range sets {
			sm, err := tr.Apply(set)
			if err != nil {
				return fmt.Errorf("%s apply %d: %w", strat, i, err)
			}
			totals[strat] += sm.RedistTime
		}
	}
	if totals[core.Diffusion] >= totals[core.Scratch] {
		out.fail("diffusion Σ redist %.4g s is not below scratch's %.4g s on the churn sets", totals[core.Diffusion], totals[core.Scratch])
	}
	return nil
}
