package elastic

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"nestdiff/internal/core"
	"nestdiff/internal/obs"
	"nestdiff/internal/perfmodel"
)

// JobLoad is one job's load signal as the autoscaler sees it: identity,
// lifecycle state, current processor count, and the signals the grow and
// shrink decisions read (active nests, recent modelled step latency,
// remaining work).
type JobLoad struct {
	ID    string
	State string // only "running" jobs are resized
	Cores int
	// ActiveNests is the number of nests the job currently tracks — the
	// primary hot/idle signal.
	ActiveNests int
	// StepSeconds is the recent modelled execution time per adaptation
	// interval (informational; the payoff estimate uses the perfmodel).
	StepSeconds float64
	// NX, NY are the parent domain extents (0 falls back to the scripted
	// scenarios' 180×105).
	NX, NY int
	// StepsLeft is the remaining parent-step work; a resize must pay for
	// itself before the job finishes.
	StepsLeft int
}

// Target is what the autoscaler drives: a per-job load view and a resize
// verb. The fleet controller implements it over its placement table and
// the owning workers' snapshot endpoints.
type Target interface {
	Jobs() ([]JobLoad, error)
	Resize(id string, procs int) error
}

// AutoscalerConfig tunes the controller loop.
type AutoscalerConfig struct {
	// Budget is the fleet-wide processor budget: the sum of every
	// non-terminal job's cores never exceeds it. <= 0 disables the
	// autoscaler entirely.
	Budget int
	// Interval is the Run loop period (0 = 2s).
	Interval time.Duration
	// Cooldown is the per-job minimum spacing between resizes, in either
	// direction — the anti-thrash guard (0 = 30s).
	Cooldown time.Duration
	// GrowMargin is how many times the modelled redistribution cost the
	// predicted saving must exceed before growing (0 = 2). Together with
	// HotNests (only nest-free jobs shrink) it forms the hysteresis band.
	GrowMargin float64
	// HotNests is the nest count at or above which a job is hot and a
	// grow is considered (0 = 3).
	HotNests int
	// MinProcs floors every job (0 = 4); Budget caps it.
	MinProcs int
	// RedistBytesPerSec prices the modelled resize cost: moving
	// NX·NY·9·ElemBytes of fine-grid state, at the tracker's default
	// ElemBytes, at the contended all-to-all rate (0 = 2 GB/s, the
	// tracker default).
	RedistBytesPerSec float64
}

func (c AutoscalerConfig) withDefaults() AutoscalerConfig {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.GrowMargin <= 0 {
		c.GrowMargin = 2
	}
	if c.HotNests <= 0 {
		c.HotNests = 3
	}
	if c.MinProcs <= 0 {
		c.MinProcs = 4
	}
	if c.RedistBytesPerSec <= 0 {
		c.RedistBytesPerSec = 2e9
	}
	return c
}

// Decision is one applied (or attempted) resize.
type Decision struct {
	JobID  string
	From   int
	To     int
	Reason string
	Err    error // non-nil when the Target.Resize call failed
}

// Autoscaler shifts processors between jobs against a fleet-wide budget:
// hot jobs (many nests, predicted to speed up by more than the resize
// costs within the horizon) grow; idle jobs shrink, returning cores to
// the budget. Hysteresis (hot at HotNests nests, idle only at none), a
// per-job cooldown and the payoff test keep it from thrashing — the same
// discipline as the paper's dynamic strategy, which only reallocates when
// the predicted gain beats the redistribution bill.
type Autoscaler struct {
	target Target
	cfg    AutoscalerConfig
	model  *perfmodel.ExecModel

	mu   sync.Mutex
	last map[string]time.Time // last resize per job

	counters AutoscalerCounters
}

// AutoscalerCounters are the handles the autoscaler increments. Its owner
// declares them in its own metric registry, so they exist on /metrics
// whether or not an autoscaler is running.
type AutoscalerCounters struct {
	Grows, Shrinks, Failures *obs.Counter
}

// NewAutoscaler builds an autoscaler over a target. With Budget <= 0 the
// Tick and Run loops are no-ops.
func NewAutoscaler(t Target, cfg AutoscalerConfig, counters AutoscalerCounters) (*Autoscaler, error) {
	if t == nil {
		return nil, fmt.Errorf("elastic: nil autoscaler target")
	}
	cfg = cfg.withDefaults()
	var model *perfmodel.ExecModel
	if cfg.Budget > 0 {
		var err error
		if model, _, err = profile(); err != nil {
			return nil, err
		}
	}
	return &Autoscaler{
		target:   t,
		cfg:      cfg,
		model:    model,
		last:     make(map[string]time.Time),
		counters: counters,
	}, nil
}

// Run ticks the autoscaler until ctx is cancelled.
func (a *Autoscaler) Run(ctx context.Context) {
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			a.Tick(now)
		}
	}
}

// Tick runs one decision pass at the given instant, returning the
// resizes it issued. Shrinks are decided before grows so the cores an
// idle job frees are available to hot jobs within the same pass.
func (a *Autoscaler) Tick(now time.Time) []Decision {
	if a.cfg.Budget <= 0 {
		return nil
	}
	jobs, err := a.target.Jobs()
	if err != nil {
		return nil
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })

	used := 0
	for _, j := range jobs {
		used += j.Cores
	}

	var out []Decision
	apply := func(j JobLoad, to int, reason string) {
		d := Decision{JobID: j.ID, From: j.Cores, To: to, Reason: reason}
		d.Err = a.target.Resize(j.ID, to)
		a.mu.Lock()
		a.last[j.ID] = now // failures cool down too: no hammering a broken path
		a.mu.Unlock()
		if d.Err != nil {
			a.counters.Failures.Add(1)
		} else {
			used += to - j.Cores
			if to > j.Cores {
				a.counters.Grows.Add(1)
			} else {
				a.counters.Shrinks.Add(1)
			}
		}
		out = append(out, d)
	}

	// Shrink pass: idle (nest-free) running jobs halve (floored at
	// MinProcs).
	for _, j := range jobs {
		if j.State != "running" || j.Cores <= a.cfg.MinProcs || !a.cooledDown(j.ID, now) {
			continue
		}
		if j.ActiveNests > 0 {
			continue
		}
		to := max(j.Cores/2, a.cfg.MinProcs)
		if to < j.Cores {
			apply(j, to, fmt.Sprintf("idle: %d active nests", j.ActiveNests))
		}
	}

	// Grow pass: hot jobs double (capped at the budget)
	// when the predicted saving over the horizon beats the modelled
	// redistribution cost by the configured margin.
	for _, j := range jobs {
		if j.State != "running" || !a.cooledDown(j.ID, now) {
			continue
		}
		if j.ActiveNests < a.cfg.HotNests {
			continue
		}
		to := min(j.Cores*2, a.cfg.Budget)
		if to <= j.Cores || used+(to-j.Cores) > a.cfg.Budget {
			continue
		}
		saving, cost, ok := a.payoff(j, to)
		if !ok || saving <= cost*a.cfg.GrowMargin {
			continue
		}
		apply(j, to, fmt.Sprintf("hot: %d nests, predicted saving %.3gs vs resize cost %.3gs over %d steps",
			j.ActiveNests, saving, cost, payoffHorizon))
	}
	return out
}

// cooledDown reports whether the job's per-resize cooldown has elapsed.
func (a *Autoscaler) cooledDown(id string, now time.Time) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.last[id]
	return !ok || now.Sub(t) >= a.cfg.Cooldown
}

// payoffHorizon is the number of upcoming steps a resize must pay for
// itself within.
const payoffHorizon = 50

// payoff estimates whether growing job j to `to` cores pays for itself:
// the predicted per-step execution saving, summed over the smaller of
// the horizon and the job's remaining steps, against the modelled cost
// of redistributing the job's fine-grid state once.
func (a *Autoscaler) payoff(j JobLoad, to int) (saving, cost float64, ok bool) {
	nx, ny := j.NX, j.NY
	if nx <= 0 || ny <= 0 {
		nx, ny = 180, 105 // the scripted scenarios' domain
	}
	cur, err := a.model.Predict(nx, ny, j.Cores)
	if err != nil {
		return 0, 0, false
	}
	grown, err := a.model.Predict(nx, ny, to)
	if err != nil {
		return 0, 0, false
	}
	steps := payoffHorizon
	if j.StepsLeft > 0 && j.StepsLeft < steps {
		steps = j.StepsLeft
	}
	saving = (cur - grown) * float64(steps)
	cost = float64(nx) * float64(ny) * 9 * float64(core.DefaultOptions().ElemBytes) / a.cfg.RedistBytesPerSec
	return saving, cost, true
}
