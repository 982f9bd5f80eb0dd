// Package service turns the batch reproduction into a resident system: a
// Scheduler runs many core.Pipeline instances concurrently on a bounded
// worker pool, with per-job lifecycle (queued → running → paused →
// done/failed/cancelled), progress snapshots, pause/resume backed by the
// NDCP pipeline checkpoints, graceful drain on shutdown, and a Prometheus
// text-format metrics surface. cmd/nestserved exposes it over HTTP.
//
// Concurrency model: each job is executed by exactly one worker goroutine
// at a time, which owns the job's pipeline (and hence its mpi worlds,
// tracker and weather model) exclusively — jobs never share mutable
// simulation state, so the only cross-goroutine surfaces are the Job's
// snapshot fields (guarded by Job.mu), the Scheduler's registry (guarded
// by Scheduler.mu) and the atomic metrics counters. The virtual-time MPI
// runtime runs goroutines *within* a job (one parked worker per rank),
// but every dispatch to them is joined inside a single pipeline step,
// entirely under the owning worker, and the attempt closes the worlds
// when it ends.
package service

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"nestdiff/internal/core"
	"nestdiff/internal/elastic"
	"nestdiff/internal/faults"
	"nestdiff/internal/geom"
	"nestdiff/internal/pda"
	"nestdiff/internal/scenario"
	"nestdiff/internal/wrfsim"
)

// JobConfig describes one simulation job: the machine to model, the
// reallocation strategy, the weather scenario and the pipeline shape. It
// mirrors core.PipelineConfig plus the machine/strategy choice, and is the
// JSON body of POST /jobs.
type JobConfig struct {
	// Cores is the total processor count P of the modelled machine.
	Cores int `json:"cores"`
	// Machine selects the interconnect: "torus" (BG/L-style 3D torus,
	// default), "mesh" (torus without wraparound) or "switched".
	Machine string `json:"machine,omitempty"`
	// CoresPerNode applies to switched machines (default 8).
	CoresPerNode int `json:"cores_per_node,omitempty"`
	// Strategy is the reallocation policy: "scratch", "diffusion"
	// (default) or "dynamic".
	Strategy string `json:"strategy,omitempty"`
	// Scenario drives storm genesis: "monsoon" (default), "cyclone",
	// "burst", or "cells" to inject the explicit Cells list at start.
	Scenario string `json:"scenario,omitempty"`
	// Seed seeds the scenario schedule and the weather model.
	Seed int64 `json:"seed,omitempty"`
	// Steps is the number of parent simulation steps to run.
	Steps int `json:"steps"`
	// Interval is the number of parent steps between PDA invocations.
	Interval int `json:"interval,omitempty"`
	// AnalysisRanks is N, the number of data-analysis processes.
	AnalysisRanks int `json:"analysis_ranks,omitempty"`
	// MaxNests caps simultaneous nests (0 = the default cap of 9).
	MaxNests int `json:"max_nests,omitempty"`
	// Distributed runs nests block-distributed with executed Alltoallv
	// redistribution (the paper's actual runtime arrangement).
	Distributed bool `json:"distributed,omitempty"`
	// NX, NY override the parent domain extents ("cells" scenario only;
	// scripted scenarios fix their own domain).
	NX int `json:"nx,omitempty"`
	NY int `json:"ny,omitempty"`
	// WRFGrid optionally overrides the split-file decomposition [px, py].
	WRFGrid [2]int `json:"wrf_grid,omitempty"`
	// Cells is the explicit initial storm population of the "cells"
	// scenario.
	Cells []wrfsim.Cell `json:"cells,omitempty"`
	// StepDelayMS throttles the job by sleeping this many milliseconds
	// between parent steps — useful for demos and for exercising
	// pause/resume deterministically.
	StepDelayMS int `json:"step_delay_ms,omitempty"`
	// MaxRetries is how many times a failed job is retried from its last
	// good checkpoint (exponential backoff with jitter between attempts).
	// Zero fails the job on its first error.
	MaxRetries int `json:"max_retries,omitempty"`
	// RetryBackoffMS is the base retry backoff: attempt n waits
	// base·2^(n-1), ±25% deterministic jitter, capped at 30 s. Zero means
	// 100 ms.
	RetryBackoffMS int `json:"retry_backoff_ms,omitempty"`
	// AutoCheckpointSteps checkpoints the running pipeline in memory (and,
	// with a scheduler CheckpointDir, on disk) every N parent steps, so a
	// retry re-executes at most N steps. Zero means 25; negative disables
	// auto-checkpointing.
	AutoCheckpointSteps int `json:"auto_checkpoint_steps,omitempty"`
	// CkptDeltaMax bounds the delta-checkpoint chain: after a full base
	// checkpoint, up to this many dirty-nest deltas are cut before the next
	// full base. Zero means the default (8); negative disables deltas and
	// writes every checkpoint as a full base.
	CkptDeltaMax int `json:"ckpt_delta_max,omitempty"`
	// DeadlineMS bounds the job's cumulative running wall-clock time
	// across retries; a job over its deadline fails terminally and is not
	// retried. Zero means no deadline.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Trace enables structured tracing for this job: the pipeline,
	// tracker, redistribution and scheduler emit events into a bounded
	// per-job ring buffer queryable via GET /jobs/{id}/trace and
	// /jobs/{id}/timeline (and, with a scheduler LedgerDir, an on-disk
	// JSONL ledger). Off by default: an untraced job pays one pointer
	// check per event site.
	Trace bool `json:"trace,omitempty"`
	// TraceBuffer bounds the traced job's in-memory event ring. Zero
	// means 4096; older events are evicted (the trace endpoint reports
	// how many).
	TraceBuffer int `json:"trace_buffer,omitempty"`
	// Faults optionally injects deterministic faults into the job's
	// pipeline and checkpoint writes — chaos tests and drills only; it is
	// not settable over the HTTP API.
	Faults *faults.Plan `json:"-"`
}

// withDefaults fills the zero-valued optional fields.
func (c JobConfig) withDefaults() JobConfig {
	if c.Machine == "" {
		c.Machine = "torus"
	}
	if c.CoresPerNode == 0 {
		c.CoresPerNode = 8
	}
	if c.Strategy == "" {
		c.Strategy = "diffusion"
	}
	if c.Scenario == "" {
		c.Scenario = "monsoon"
	}
	if c.Seed == 0 {
		c.Seed = 2607
	}
	if c.Interval == 0 {
		c.Interval = 5
	}
	if c.AnalysisRanks == 0 {
		c.AnalysisRanks = 16
	}
	if c.MaxNests == 0 {
		c.MaxNests = 9
	}
	if c.RetryBackoffMS == 0 {
		c.RetryBackoffMS = 100
	}
	if c.AutoCheckpointSteps == 0 {
		c.AutoCheckpointSteps = 25
	}
	return c
}

// Validate rejects configurations the builder cannot honour.
func (c JobConfig) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("service: invalid core count %d", c.Cores)
	}
	if c.Steps <= 0 {
		return fmt.Errorf("service: invalid step count %d", c.Steps)
	}
	if c.Interval < 0 || c.AnalysisRanks < 0 || c.MaxNests < 0 || c.StepDelayMS < 0 {
		return fmt.Errorf("service: negative parameter in job config")
	}
	if c.MaxRetries < 0 || c.RetryBackoffMS < 0 || c.DeadlineMS < 0 {
		return fmt.Errorf("service: negative retry/deadline parameter in job config")
	}
	if c.TraceBuffer < 0 {
		return fmt.Errorf("service: negative trace buffer in job config")
	}
	if _, err := ParseStrategy(c.withDefaults().Strategy); err != nil {
		return err
	}
	// elastic.BuildMachine holds the one list of machine kinds; building
	// the machine here is the check that the run will build it too.
	if _, err := elastic.BuildMachine(c.Cores, c.Machine, c.CoresPerNode); err != nil {
		return err
	}
	switch strings.ToLower(c.withDefaults().Scenario) {
	case "monsoon", "cyclone", "burst":
	case "cells":
		if len(c.Cells) == 0 {
			return fmt.Errorf("service: scenario %q needs a non-empty cells list", c.Scenario)
		}
	default:
		return fmt.Errorf("service: unknown scenario %q (want monsoon, cyclone, burst or cells)", c.Scenario)
	}
	return nil
}

// ParseStrategy resolves a strategy name to the core constant.
func ParseStrategy(s string) (core.Strategy, error) {
	switch strings.ToLower(s) {
	case "scratch":
		return core.Scratch, nil
	case "diffusion", "tree", "tree-based":
		return core.Diffusion, nil
	case "dynamic":
		return core.Dynamic, nil
	}
	return 0, fmt.Errorf("service: unknown strategy %q (want scratch, diffusion or dynamic)", s)
}

// buildSchedule resolves the scenario to the model's genesis schedule plus
// the domain extents it was designed for ("cells" has an empty schedule;
// its storms are injected at model build).
func buildSchedule(cfg JobConfig) ([]scenario.TimedCell, int, int, error) {
	if strings.ToLower(cfg.Scenario) != "cells" {
		return scenario.Scripted(cfg.Scenario, cfg.Steps, cfg.Seed)
	}
	if cfg.NX == 0 || cfg.NY == 0 {
		return nil, 96, 72, nil
	}
	return nil, cfg.NX, cfg.NY, nil
}

// wrfGridFor picks the split-file decomposition: the explicit override, or
// the calibrated defaults for the known domain shapes.
func wrfGridFor(cfg JobConfig, nx, ny int) geom.Grid {
	if cfg.WRFGrid[0] > 0 && cfg.WRFGrid[1] > 0 {
		return geom.NewGrid(cfg.WRFGrid[0], cfg.WRFGrid[1])
	}
	if nx == 180 && ny == 105 {
		return geom.NewGrid(18, 15) // the scripted scenarios' domain
	}
	return geom.NewGrid(8, 6)
}

// run is a job's executable state: the pipeline plus the delta-checkpoint
// writer tracking the pipeline's dirty state across checkpoints. It is
// owned by exactly one worker goroutine at a time; the writer's shadow state
// dies with the attempt, so every restored run opens its chain with a full
// base checkpoint.
type run struct {
	pipe *core.Pipeline
	ckw  *core.CheckpointWriter
}

// newCkptWriter builds the run's checkpoint writer from the job config.
func newCkptWriter(cfg JobConfig) *core.CheckpointWriter {
	return core.NewCheckpointWriter(core.CheckpointWriterOptions{MaxDeltas: cfg.CkptDeltaMax})
}

// newRun builds a fresh run from a job config.
func newRun(cfg JobConfig) (*run, error) {
	pipe, err := BuildPipeline(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		pipe.SetFaultPlan(cfg.Faults)
	}
	return &run{pipe: pipe, ckw: newCkptWriter(cfg)}, nil
}

// BuildPipeline assembles the fresh pipeline a job config names — the
// machine, the tracker, the scenario's weather model and the pipeline
// shape, with the config's defaults filled in. It is the one recipe for a
// job's run; cmd/nestsim runs the same one from its flags.
func BuildPipeline(cfg JobConfig) (*core.Pipeline, error) {
	cfg = cfg.withDefaults()
	strat, err := ParseStrategy(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	m, err := elastic.BuildMachine(cfg.Cores, cfg.Machine, cfg.CoresPerNode)
	if err != nil {
		return nil, err
	}
	tracker, err := core.NewTracker(m.Grid, m.Net, m.Model, m.Oracle, strat, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	sched, nx, ny, err := buildSchedule(cfg)
	if err != nil {
		return nil, err
	}
	wcfg := wrfsim.DefaultConfig()
	wcfg.NX, wcfg.NY = nx, ny
	wcfg.SpawnRate = 0
	wcfg.Genesis = sched
	wcfg.Seed = cfg.Seed
	if strings.ToLower(cfg.Scenario) != "cells" {
		// Compact-storm parameterization: sharper OLR signatures keep the
		// detected clusters storm-sized, so nests track individual systems
		// instead of one domain-wide cloud shield. The cyclone scenario
		// renews its own core in place; merging those renewals would
		// double-count the same system.
		wcfg.MergeEnabled = strings.ToLower(cfg.Scenario) != "cyclone"
		wcfg.DecayTau = 2400
		wcfg.OLRPerQ = 10
	}
	model, err := wrfsim.NewModel(wcfg)
	if err != nil {
		return nil, err
	}
	for _, c := range cfg.Cells {
		if err := model.InjectCell(c); err != nil {
			return nil, err
		}
	}
	return core.NewPipeline(model, tracker, core.PipelineConfig{
		WRFGrid:       wrfGridFor(cfg, nx, ny),
		AnalysisRanks: cfg.AnalysisRanks,
		Interval:      cfg.Interval,
		PDA:           pda.DefaultOptions(),
		MaxNests:      cfg.MaxNests,
		Distributed:   cfg.Distributed,
	})
}

// restoreRun rebuilds a run from a pause checkpoint: the machine and
// performance models are reconstructed from the config (they are
// configuration, not state) and the pipeline is restored from the NDCP
// checkpoint chain, genesis schedule included. A checkpoint whose schedule
// is not the one the config generates is refused: it was written for
// another job, or before the model carried its schedule, and would resume
// without the storms still to come.
func restoreRun(cfg JobConfig, checkpoint []byte) (_ *run, err error) {
	cfg = cfg.withDefaults()
	m, err := elastic.BuildMachine(cfg.Cores, cfg.Machine, cfg.CoresPerNode)
	if err != nil {
		return nil, err
	}
	pipe, err := core.RestorePipeline(bytes.NewReader(checkpoint), m.Net, m.Model, m.Oracle)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			pipe.Close()
		}
	}()
	if got := pipe.Tracker().Grid(); got != m.Grid {
		return nil, fmt.Errorf("%w: checkpoint holds a %dx%d grid (%d procs), config names %d cores (%dx%d)",
			core.ErrProcMismatch, got.Px, got.Py, got.Size(), cfg.Cores, m.Grid.Px, m.Grid.Py)
	}
	sched, _, _, err := buildSchedule(cfg)
	if err != nil {
		return nil, err
	}
	if got := pipe.Model().Config().Genesis; !slices.Equal(got, sched) {
		return nil, fmt.Errorf("service: checkpoint carries a %d-entry genesis schedule, scenario %q generates %d",
			len(got), cfg.Scenario, len(sched))
	}
	if cfg.Faults != nil {
		pipe.SetFaultPlan(cfg.Faults)
	}
	return &run{pipe: pipe, ckw: newCkptWriter(cfg)}, nil
}
