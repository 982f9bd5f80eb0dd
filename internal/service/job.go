package service

import (
	"sync"
	"time"

	"nestdiff/internal/core"
	"nestdiff/internal/obs"
	"nestdiff/internal/scenario"
	"nestdiff/internal/serve"
)

// Job is one scheduled simulation. Its snapshot fields are guarded by mu;
// the executing pipeline itself is owned exclusively by the worker
// goroutine currently running the job and is never reachable from other
// goroutines.
type Job struct {
	ID  string
	Cfg JobConfig

	mu           sync.Mutex
	state        JobState
	step         int
	events       []core.AdaptationEvent
	activeSet    scenario.Set
	execTime     float64
	redistTime   float64
	execRedist   float64
	err          error
	checkpoint   []byte    // encoded checkpoint chain while paused or awaiting retry
	lastGood     []byte    // restorable chain as of the last cleanly cut checkpoint
	retries      int       // retry attempts consumed so far
	epoch        int64     // fleet placement epoch (0: not fleet-managed)
	resizeReq    int       // requested processor count (0: none pending)
	stop         stopReq   // request standing against a running job
	fenceEpoch   int64     // epoch of a pending fence; j.epoch once it settles
	started      time.Time // first run attempt began
	attemptStart time.Time // current run attempt began
	created      time.Time
	updated      time.Time

	// tracer is the job's structured tracer (nil unless Cfg.Trace); ledger
	// is its optional on-disk JSONL backing (nil without a scheduler
	// LedgerDir). Both are set once in Submit before the job is enqueued
	// and are read-mostly afterwards; the pointers are guarded by mu so
	// the HTTP surface and the worker never race on them.
	tracer *obs.Tracer
	ledger *obs.Ledger

	// pub is the job's copy-on-write snapshot publisher, set once at
	// registration (Submit/Import) before the job is reachable and
	// immutable afterwards — readers and the worker share it lock-free.
	pub *serve.Publisher

	// ckptGen counts boundary checkpoints cut so far; ckptWant asks the
	// worker to cut one at its next boundary, and ckptCh (closed and
	// replaced on each cut) wakes exporters waiting for it. Guarded by mu.
	ckptGen  int64
	ckptWant bool
	ckptCh   chan struct{}
}

// Snapshot is the externally visible progress of a job — the JSON body of
// GET /jobs/{id}.
type Snapshot struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Step and TotalSteps report parent-step progress.
	Step       int `json:"step"`
	TotalSteps int `json:"total_steps"`
	// Cores is the job's current processor count — live, not the submitted
	// value: a resize (operator or autoscaler) updates it.
	Cores int `json:"cores,omitempty"`
	// ActiveNests is the current nest configuration.
	ActiveNests scenario.Set `json:"active_nests"`
	// Events counts adaptation points so far; LastEvent is the most
	// recent one.
	Events    int                   `json:"events"`
	LastEvent *core.AdaptationEvent `json:"last_event,omitempty"`
	// ExecTime / RedistTime are the cumulative modelled costs over all
	// adaptation points; ExecutedRedistTime is the virtual time of the
	// executed Alltoallv exchanges (distributed jobs).
	ExecTime           float64 `json:"exec_time"`
	RedistTime         float64 `json:"redist_time"`
	ExecutedRedistTime float64 `json:"executed_redist_time"`
	// HasCheckpoint reports whether a pause checkpoint is held (a paused
	// job without one resumes from the start — it was paused while
	// queued).
	HasCheckpoint bool `json:"has_checkpoint"`
	// Retries counts retry attempts consumed so far; a retrying job's
	// Error field carries the failure being retried.
	Retries int `json:"retries,omitempty"`
	// Epoch is the fleet placement epoch this copy of the job runs under
	// (0 for jobs outside a fleet). The controller bumps it on every
	// adoption or migration; a copy with a stale epoch is fenced.
	Epoch   int64     `json:"epoch,omitempty"`
	Error   string    `json:"error,omitempty"`
	Created time.Time `json:"created"`
	Updated time.Time `json:"updated"`
}

// snapshotLocked builds a Snapshot; callers hold j.mu.
func (j *Job) snapshotLocked() Snapshot {
	s := Snapshot{
		ID:                 j.ID,
		State:              j.state,
		Step:               j.step,
		TotalSteps:         j.Cfg.Steps,
		Cores:              j.Cfg.Cores,
		ActiveNests:        j.activeSet,
		Events:             len(j.events),
		ExecTime:           j.execTime,
		RedistTime:         j.redistTime,
		ExecutedRedistTime: j.execRedist,
		HasCheckpoint:      len(j.checkpoint) > 0,
		Retries:            j.retries,
		Epoch:              j.epoch,
		Created:            j.created,
		Updated:            j.updated,
	}
	if len(j.events) > 0 {
		e := j.events[len(j.events)-1]
		s.LastEvent = &e
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s
}

// Snapshot returns the job's current progress.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

// Events returns the adaptation events recorded so far. The returned
// slice is a copy; the events themselves are append-only and safe to
// share.
func (j *Job) Events() []core.AdaptationEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]core.AdaptationEvent(nil), j.events...)
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// observe folds the pipeline's progress into the snapshot fields after a
// step, returning the events appended since the last observation (for the
// scheduler's metrics counters).
func (j *Job) observe(p *core.Pipeline) []core.AdaptationEvent {
	events := p.Events()
	j.mu.Lock()
	defer j.mu.Unlock()
	fresh := events[len(j.events):]
	for _, e := range fresh {
		j.execTime += e.Metrics.ExecTime
		j.redistTime += e.Metrics.RedistTime
		j.execRedist += e.ExecutedRedistTime
	}
	j.events = events
	j.step = p.StepCount()
	j.activeSet = p.ActiveSet()
	j.updated = time.Now()
	return fresh
}

// rebase resets the job's progress view to exactly a freshly built or
// restored pipeline's state. A retry restarts from an older checkpoint (or
// from scratch), so the job may have observed events past it; rebasing
// discards that rolled-back progress so observe's incremental append stays
// consistent and the final trace matches a fault-free run.
func (j *Job) rebase(p *core.Pipeline) {
	events := p.Events()
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append([]core.AdaptationEvent(nil), events...)
	j.execTime, j.redistTime, j.execRedist = 0, 0, 0
	for _, e := range j.events {
		j.execTime += e.Metrics.ExecTime
		j.redistTime += e.Metrics.RedistTime
		j.execRedist += e.ExecutedRedistTime
	}
	j.step = p.StepCount()
	j.activeSet = p.ActiveSet()
	j.updated = time.Now()
}

// obsTracer returns the job's tracer; nil means tracing is disabled and
// every emission site reduces to this one pointer check.
func (j *Job) obsTracer() *obs.Tracer {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tracer
}

// emitJobEventLocked records one lifecycle transition (submitted, paused,
// retry, done, failed, cancelled...). Callers hold j.mu; the tracer has
// its own lock and never takes j.mu, so the nesting is safe.
func (j *Job) emitJobEventLocked(phase, detail string) {
	if j.tracer == nil {
		return
	}
	j.tracer.Emit(obs.Event{Kind: obs.KindJob, Step: j.step, Phase: phase, Detail: detail})
}

// emitJobEvent is emitJobEventLocked for callers not holding j.mu.
func (j *Job) emitJobEvent(phase, detail string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.emitJobEventLocked(phase, detail)
}

// appendCheckpointLocked folds one encoded checkpoint blob into the job's
// restorable chain, returns the chain, and wakes exporters waiting for a
// fresh cut. A full base starts a fresh chain; a delta extends it in place.
// Extending is safe against concurrent readers of older chain values: a
// reader's slice header keeps its shorter length, and bytes below that
// length are never rewritten (growth past capacity reallocates, leaving the
// old array intact). Callers hold j.mu.
func (j *Job) appendCheckpointLocked(blob []byte, full bool) []byte {
	if full {
		j.lastGood = append([]byte(nil), blob...)
	} else {
		j.lastGood = append(j.lastGood, blob...)
	}
	j.ckptGen++
	if j.ckptCh != nil {
		close(j.ckptCh)
		j.ckptCh = nil
	}
	return j.lastGood
}

// takeCkptWant consumes a pending fresh-checkpoint demand. The worker
// calls it once per step boundary.
func (j *Job) takeCkptWant() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	w := j.ckptWant
	j.ckptWant = false
	return w
}

// freshCheckpoint asks the running worker to cut a checkpoint at its
// next step boundary and waits up to maxWait for it. On a job that is
// not running (or when the wait expires) it returns immediately — the
// caller then ships whatever checkpoint it already holds. The step loop
// is never blocked beyond the one boundary checkpoint it cuts anyway.
func (j *Job) freshCheckpoint(maxWait time.Duration) {
	j.mu.Lock()
	if j.state != StateRunning {
		j.mu.Unlock()
		return
	}
	gen := j.ckptGen
	j.ckptWant = true
	if j.ckptCh == nil {
		j.ckptCh = make(chan struct{})
	}
	ch := j.ckptCh
	j.mu.Unlock()

	deadline := time.NewTimer(maxWait)
	defer deadline.Stop()
	for {
		select {
		case <-ch:
		case <-deadline.C:
			return
		}
		j.mu.Lock()
		if j.ckptGen > gen || j.state != StateRunning || j.ckptCh == nil {
			j.mu.Unlock()
			return
		}
		ch = j.ckptCh
		j.mu.Unlock()
	}
}

// publisher returns the job's snapshot publisher (nil-safe: a nil
// publisher ignores publishes and reports ErrNoSnapshot to readers).
func (j *Job) publisher() *serve.Publisher { return j.pub }

// takeResize consumes a pending resize request, returning the requested
// processor count (0: none). The worker calls it once per step boundary;
// consuming before acting means a request is attempted at most once — a
// crash mid-resize retries the job, not the resize.
func (j *Job) takeResize() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	procs := j.resizeReq
	j.resizeReq = 0
	return procs
}
