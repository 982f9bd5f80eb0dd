package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"nestdiff/internal/core"
	"nestdiff/internal/elastic"
	"nestdiff/internal/faults"
	"nestdiff/internal/obs"
	"nestdiff/internal/serve"
)

// Sentinel errors of the job API; the HTTP layer maps them to status
// codes.
var (
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("service: no such job")
	// ErrBadTransition reports a lifecycle operation invalid in the job's
	// current state (e.g. resuming a running job).
	ErrBadTransition = errors.New("service: invalid state transition")
	// ErrShuttingDown reports that the scheduler no longer accepts work.
	ErrShuttingDown = errors.New("service: scheduler is shutting down")
	// ErrDeadlineExceeded reports a job that outlived its configured
	// deadline; deadline failures are terminal and never retried.
	ErrDeadlineExceeded = errors.New("service: job deadline exceeded")
	// ErrQueueFull reports a saturated submit queue. The HTTP layer maps
	// it to 429 with a Retry-After header, and the fleet control plane
	// propagates that load-shedding signal to its own admission path.
	ErrQueueFull = errors.New("service: submit queue full")
	// ErrJobExists rejects registering a job under an ID already taken —
	// an import or adoption racing a recovery of the same checkpoint.
	ErrJobExists = errors.New("service: job ID already exists")
)

// SchedulerConfig tunes a Scheduler.
type SchedulerConfig struct {
	// Workers is the worker-pool size — the maximum number of jobs
	// simulating concurrently. Zero means 4.
	Workers int
	// QueueDepth bounds the submit queue. Zero means 256.
	QueueDepth int
	// CheckpointDir, when non-empty, persists each job's auto- and pause
	// checkpoints to <dir>/<jobID>.ckpt with atomic writes
	// (temp+fsync+rename), so a daemon crash leaves restorable state on
	// disk. Empty keeps checkpoints in memory only.
	CheckpointDir string
	// LedgerDir, when non-empty, gives every traced job (JobConfig.Trace)
	// an append-only JSONL event ledger at <dir>/<jobID>.jsonl, readable
	// offline with cmd/nesttrace. A ledger that fails to open is counted
	// and skipped; the in-memory trace ring still works.
	LedgerDir string
	// DisableRecovery skips the startup scan of CheckpointDir. Standalone
	// daemons want recovery (a restart re-registers every persisted job as
	// paused); fleet workers sharing a checkpoint store disable it and let
	// the control plane decide which worker adopts which job.
	DisableRecovery bool
	// Faults, when non-nil, is the default fault plan applied to every
	// submitted or imported job that does not carry its own — chaos drills
	// only. It is how the fleet chaos suite injects faults into jobs that
	// arrived over HTTP (JobConfig.Faults never crosses the wire).
	Faults *faults.Plan
	// SnapshotEvery, when positive, materializes every running job's read
	// snapshot each N steps even with no waiting reader, trading one field
	// copy per N steps for instant first reads. Zero (the default) is
	// purely demand-driven: the no-reader publish path is an integer store.
	SnapshotEvery int
	// TileCacheBytes bounds the shared quantized-tile cache serving
	// GET /jobs/{id}/field. Zero means 64 MiB.
	TileCacheBytes int64
}

// Scheduler runs simulation jobs on a bounded worker pool.
type Scheduler struct {
	cfg     SchedulerConfig
	metrics *metrics
	tiles   *serve.Cache

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	seq    int
	closed bool

	queue   chan *Job
	quit    chan struct{}
	kill    chan struct{} // closed by Kill: simulated process death
	killed  bool
	wg      sync.WaitGroup
	retryWG sync.WaitGroup // backoff timers awaiting re-enqueue

	// pers is the asynchronous checkpoint-persistence tier (nil without a
	// CheckpointDir): workers enqueue encoded chains, one background
	// goroutine owns the file I/O and fsyncs.
	pers *persister
}

// NewScheduler starts a scheduler with the given worker-pool size.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	s := &Scheduler{
		cfg:   cfg,
		tiles: serve.NewCache(cfg.TileCacheBytes),
		jobs:  make(map[string]*Job),
		queue: make(chan *Job, cfg.QueueDepth),
		quit:  make(chan struct{}),
		kill:  make(chan struct{}),
	}
	s.metrics = newMetrics(s)
	if cfg.CheckpointDir != "" && !cfg.DisableRecovery {
		s.recoverCheckpoints()
	}
	if cfg.CheckpointDir != "" {
		s.pers = newPersister(s)
		go s.pers.run()
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// recoverCheckpoints re-registers every persisted job checkpoint in
// CheckpointDir as a paused job, so a daemon restart loses nothing that
// was checkpointed: `POST /jobs/{id}/resume` continues each one
// bit-identically from where the dead process left it. Corrupt or torn
// envelopes are counted and skipped, never resumed. This same scan-free
// import path is what a fleet survivor runs when it adopts a dead
// worker's job.
func (s *Scheduler) recoverCheckpoints() {
	paths, err := filepath.Glob(filepath.Join(s.cfg.CheckpointDir, "*.ckpt"))
	if err != nil {
		return
	}
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			s.metrics.checkpointsCorrupt.Add(1)
			continue
		}
		cfg, epoch, state, err := decodeJobCheckpoint(data)
		if err != nil {
			if !errors.Is(err, core.ErrDeltaChainBroken) {
				s.metrics.checkpointsCorrupt.Add(1)
				continue
			}
			// A torn delta tail (the process died mid-append): the intact
			// chain prefix is still restorable, so recover from it.
			s.metrics.checkpointsTruncated.Add(1)
		}
		id := strings.TrimSuffix(filepath.Base(p), ".ckpt")
		if _, err := s.Import(id, epoch, cfg, state); err != nil {
			s.metrics.checkpointsCorrupt.Add(1)
			continue
		}
		s.metrics.checkpointsRecovered.Add(1)
	}
}

// Workers returns the worker-pool size.
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// Ready reports whether the scheduler still accepts work — the substance
// of the /readyz probe. It flips false the moment a drain starts.
func (s *Scheduler) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// Metrics returns the scheduler's metric table; tests read one family with
// Value.
func (s *Scheduler) Metrics() *obs.Registry { return s.metrics.reg }

// Submit validates, registers and enqueues a job, returning its snapshot.
func (s *Scheduler) Submit(cfg JobConfig) (Snapshot, error) {
	return s.submit("", 0, cfg)
}

// SubmitWithID is Submit under a caller-chosen job ID and placement
// epoch. The fleet control plane allocates fleet-wide unique IDs (f-1,
// f-2, ...) so a job keeps its identity as it moves between workers, and
// stamps the placement epoch every checkpoint and heartbeat will carry;
// local submissions keep the scheduler-assigned job-N sequence and epoch
// 0 (not fleet-managed).
func (s *Scheduler) SubmitWithID(id string, epoch int64, cfg JobConfig) (Snapshot, error) {
	if id == "" {
		return Snapshot{}, fmt.Errorf("service: empty job ID")
	}
	return s.submit(id, epoch, cfg)
}

func (s *Scheduler) submit(id string, epoch int64, cfg JobConfig) (Snapshot, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Snapshot{}, err
	}
	if cfg.Faults == nil {
		cfg.Faults = s.cfg.Faults
	}
	now := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Snapshot{}, ErrShuttingDown
	}
	if id == "" {
		s.seq++
		id = fmt.Sprintf("job-%d", s.seq)
	} else {
		if _, ok := s.jobs[id]; ok {
			s.mu.Unlock()
			return Snapshot{}, fmt.Errorf("%w: %q", ErrJobExists, id)
		}
		s.bumpSeqLocked(id)
	}
	j := &Job{
		ID:      id,
		Cfg:     cfg,
		state:   StateQueued,
		epoch:   epoch,
		pub:     serve.NewPublisher(s.cfg.SnapshotEvery),
		created: now,
		updated: now,
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()

	s.attachTracer(j, cfg)

	select {
	case s.queue <- j:
	default:
		s.mu.Lock()
		delete(s.jobs, j.ID)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		j.mu.Lock()
		if j.ledger != nil {
			j.ledger.Close()
		}
		j.mu.Unlock()
		s.metrics.queueFullRejections.Add(1)
		return Snapshot{}, fmt.Errorf("%w (%d jobs)", ErrQueueFull, s.cfg.QueueDepth)
	}
	s.metrics.jobsSubmitted.Add(1)
	j.emitJobEvent("submitted", fmt.Sprintf("%s/%s, %d cores, %d steps", cfg.Scenario, cfg.Strategy, cfg.Cores, cfg.Steps))
	return j.Snapshot(), nil
}

// attachTracer gives a freshly registered traced job its tracer and
// optional on-disk ledger.
func (s *Scheduler) attachTracer(j *Job, cfg JobConfig) {
	if !cfg.Trace {
		return
	}
	var led *obs.Ledger
	if s.cfg.LedgerDir != "" {
		var lerr error
		led, lerr = obs.OpenLedger(filepath.Join(s.cfg.LedgerDir, j.ID+".jsonl"))
		if lerr != nil {
			s.metrics.ledgerFailures.Add(1)
			led = nil
		}
	}
	j.mu.Lock()
	j.tracer = obs.New(obs.Options{Buffer: cfg.TraceBuffer, Ledger: led})
	j.ledger = led
	j.mu.Unlock()
}

// bumpSeqLocked keeps the job-N sequence ahead of any externally assigned
// ID of that shape (a recovered checkpoint of a pre-crash local job), so
// local submissions never collide with recovered registrations. Callers
// hold s.mu.
func (s *Scheduler) bumpSeqLocked(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > s.seq {
		s.seq = n
	}
}

// Import registers a job under the given ID as paused, holding the given
// pipeline checkpoint (nil resumes from scratch) and placement epoch. It
// is the worker-side half of job handoff: startup recovery, fleet
// adoption and drain migration all funnel through it, and
// `POST /jobs/{id}/import` exposes it for manual migration of an
// exported checkpoint.
func (s *Scheduler) Import(id string, epoch int64, cfg JobConfig, checkpoint []byte) (Snapshot, error) {
	if id == "" {
		return Snapshot{}, fmt.Errorf("service: empty job ID")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Snapshot{}, err
	}
	if cfg.Faults == nil {
		cfg.Faults = s.cfg.Faults
	}
	now := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Snapshot{}, ErrShuttingDown
	}
	if prev, ok := s.jobs[id]; ok {
		// A terminal copy (done, failed, cancelled, fenced) no longer owns
		// the ID: re-importing over it is how a job migrates back onto a
		// worker that once fenced it. Live copies still conflict.
		if !prev.State().Terminal() {
			s.mu.Unlock()
			return Snapshot{}, fmt.Errorf("%w: %q", ErrJobExists, id)
		}
		delete(s.jobs, id)
		for i, oid := range s.order {
			if oid == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	s.bumpSeqLocked(id)
	j := &Job{
		ID:         id,
		Cfg:        cfg,
		state:      StatePaused,
		checkpoint: checkpoint,
		lastGood:   checkpoint,
		epoch:      epoch,
		pub:        serve.NewPublisher(s.cfg.SnapshotEvery),
		created:    now,
		updated:    now,
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.attachTracer(j, cfg)
	s.metrics.jobsImported.Add(1)
	j.emitJobEvent("imported", fmt.Sprintf("%d-byte checkpoint", len(checkpoint)))
	return j.Snapshot(), nil
}

// Adopt re-homes a job onto this scheduler, the survivor-side of fleet
// checkpoint handoff: if the shared checkpoint store holds a valid
// <CheckpointDir>/<id>.ckpt — the dead worker's latest persisted
// checkpoint — the job resumes from it bit-identically; otherwise it
// restarts from scratch with the control plane's copy of the config
// (the job died before its first checkpoint). Either way the job is
// imported paused and resumed immediately. Adopting an ID this scheduler
// already holds (a startup recovery beat the control plane to it) just
// resumes the paused job.
// The controller sends the bumped placement epoch; the adopted copy runs
// under it (and every checkpoint it persists carries it), fencing out any
// still-alive previous owner that was merely partitioned.
func (s *Scheduler) Adopt(id string, epoch int64, cfg JobConfig) (Snapshot, error) {
	var checkpoint []byte
	if s.cfg.CheckpointDir != "" {
		if data, err := os.ReadFile(filepath.Join(s.cfg.CheckpointDir, id+".ckpt")); err == nil {
			fileCfg, fileEpoch, state, derr := decodeJobCheckpoint(data)
			if derr != nil && errors.Is(derr, core.ErrDeltaChainBroken) {
				// The dead worker tore its final delta append: adopt from
				// the intact chain prefix.
				s.metrics.checkpointsTruncated.Add(1)
				derr = nil
			}
			if derr == nil {
				cfg, checkpoint = fileCfg, state
				if fileEpoch > epoch {
					// Never adopt backwards: the store already carries a
					// higher epoch than the controller sent (a replayed WAL
					// lagging a later adoption).
					epoch = fileEpoch
				}
			} else {
				s.metrics.checkpointsCorrupt.Add(1)
			}
		}
	}
	if _, err := s.Import(id, epoch, cfg, checkpoint); err != nil {
		if !errors.Is(err, ErrJobExists) {
			return Snapshot{}, err
		}
		// A startup recovery beat the control plane to this ID; raise the
		// existing copy to the adoption epoch so its checkpoints fence
		// correctly.
		s.raiseEpoch(id, epoch)
	}
	if err := s.Resume(id); err != nil && !errors.Is(err, ErrBadTransition) {
		// ErrBadTransition means the job is already queued, running or
		// terminal here — adoption is idempotent. Anything else (queue
		// full, shutting down) is the caller's to retry.
		return Snapshot{}, err
	}
	s.metrics.jobsAdopted.Add(1)
	return s.Get(id)
}

// raiseEpoch lifts a job's placement epoch; it never lowers it.
func (s *Scheduler) raiseEpoch(id string, epoch int64) {
	j, err := s.lookup(id)
	if err != nil {
		return
	}
	j.mu.Lock()
	if epoch > j.epoch {
		j.epoch = epoch
	}
	j.mu.Unlock()
}

// ExportCheckpoint returns the job checkpoint envelope (config + latest
// pipeline checkpoint) for handoff: piped into another worker's
// `POST /jobs/{id}/import`, the job continues there bit-identically. A
// job exported before its first checkpoint ships config only and restarts
// from scratch on import.
func (s *Scheduler) ExportCheckpoint(id string) ([]byte, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	// A running job ships a checkpoint cut at its next step boundary
	// rather than the possibly stale last auto-checkpoint. The worker is
	// only asked to pay its normal boundary-checkpoint cost; if the
	// boundary doesn't arrive within the wait, the stale one ships.
	j.freshCheckpoint(exportFreshWait)
	j.mu.Lock()
	state := j.checkpoint
	if len(state) == 0 {
		state = j.lastGood
	}
	cfg := j.Cfg
	epoch := j.epoch
	j.mu.Unlock()
	return encodeJobCheckpoint(cfg, epoch, state)
}

// Fence terminates the local copy of a job whose placement moved
// elsewhere: the controller adopted or migrated it under a higher epoch
// while this worker was partitioned or draining. Unlike Cancel, a fence
// never touches the shared checkpoint store — the file now belongs to the
// new owner. Fencing a terminal or unknown job is a no-op (the copy is
// already gone); a running job fences at its next step boundary.
//
// The epoch is the fence's validity token, not advice: the command kills
// this copy only when epoch is strictly greater than the copy's own. A
// fence carrying an equal or lower epoch was computed against a stale
// placement view — a heartbeat from the new owner racing the adoption or
// migration that created it — and killing the legitimate successor on its
// say-so would orphan the job forever.
func (s *Scheduler) Fence(id string, epoch int64) error {
	j, err := s.lookup(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return nil
	}
	if epoch <= j.epoch {
		return nil // stale fence: this copy is the epoch's rightful owner
	}
	j.epoch = epoch
	switch j.state {
	case StateQueued, StatePaused, StateRetrying:
		j.state = StateFenced
		j.checkpoint = nil
		j.pauseReq, j.cancelReq, j.fenceReq = false, false, false
		j.updated = time.Now()
		j.emitJobEventLocked("fenced", fmt.Sprintf("epoch %d superseded", epoch))
		if j.ledger != nil {
			j.ledger.Close()
		}
		s.metrics.jobsFenced.Add(1)
	case StateRunning:
		j.fenceReq = true
	}
	return nil
}

// JobEpochReport is one entry of the heartbeat's job-epoch report.
type JobEpochReport struct {
	ID    string `json:"id"`
	Epoch int64  `json:"epoch"`
}

// EpochReport lists every live fleet-managed job (epoch > 0,
// non-terminal) with its placement epoch — the payload a worker stamps
// into each heartbeat so the controller can fence stale copies.
func (s *Scheduler) EpochReport() []JobEpochReport {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	var out []JobEpochReport
	for _, j := range jobs {
		j.mu.Lock()
		if j.epoch > 0 && !j.state.Terminal() {
			out = append(out, JobEpochReport{ID: j.ID, Epoch: j.epoch})
		}
		j.mu.Unlock()
	}
	return out
}

// Kill hard-stops the scheduler, simulating sudden process death for
// chaos drills: no drain, no parking, no checkpoint writes, no file
// cleanup. Workers stop at their next step boundary leaving job state
// and on-disk artifacts exactly as a crashed process would — the last
// persisted checkpoint in CheckpointDir is all that survives, which is
// precisely what fleet adoption must be able to resume from.
func (s *Scheduler) Kill() {
	s.mu.Lock()
	if !s.killed {
		s.killed = true
		close(s.kill)
	}
	s.closed = true
	s.mu.Unlock()
}

// dead reports whether Kill has fired.
func (s *Scheduler) dead() bool {
	select {
	case <-s.kill:
		return true
	default:
		return false
	}
}

// lookup returns the job with the given ID.
func (s *Scheduler) lookup(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Get returns the snapshot of one job.
func (s *Scheduler) Get(id string) (Snapshot, error) {
	j, err := s.lookup(id)
	if err != nil {
		return Snapshot{}, err
	}
	return j.Snapshot(), nil
}

// JobEvents returns one job's adaptation events so far.
func (s *Scheduler) JobEvents(id string) ([]core.AdaptationEvent, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	return j.Events(), nil
}

// List returns the snapshots of all jobs in submission order.
func (s *Scheduler) List() []Snapshot {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Snapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	return out
}

// Cancel terminates a job. Queued and paused jobs cancel immediately;
// running jobs cancel at the next step boundary.
func (s *Scheduler) Cancel(id string) error {
	j, err := s.lookup(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued, StatePaused, StateRetrying:
		j.state = StateCancelled
		j.checkpoint = nil
		j.updated = time.Now()
		j.emitJobEventLocked("cancelled", "")
		if j.ledger != nil {
			j.ledger.Close()
		}
		s.metrics.jobsCancelled.Add(1)
		s.removeCheckpointFile(j.ID, j.epoch)
		return nil
	case StateRunning:
		j.cancelReq = true
		return nil
	}
	return fmt.Errorf("%w: cancel a %s job", ErrBadTransition, j.state)
}

// Pause suspends a job. A queued job pauses in place (and resumes from
// the start); a running job checkpoints at the next step boundary and
// parks, freeing its worker.
func (s *Scheduler) Pause(id string) error {
	j, err := s.lookup(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued, StateRetrying:
		// A retrying job parks with the checkpoint its retry would have
		// resumed from; its backoff timer sees the state change and drops.
		j.state = StatePaused
		j.updated = time.Now()
		j.emitJobEventLocked("paused", "")
		s.metrics.pauses.Add(1)
		return nil
	case StateRunning:
		if !j.pauseReq {
			j.pauseReq = true
		}
		return nil
	}
	return fmt.Errorf("%w: pause a %s job", ErrBadTransition, j.state)
}

// Resume re-enqueues a paused job; if it holds a checkpoint it continues
// from the paused step, bit-identically to a never-paused run.
func (s *Scheduler) Resume(id string) error {
	j, err := s.lookup(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrShuttingDown
	}
	j.mu.Lock()
	if j.state != StatePaused {
		state := j.state
		j.mu.Unlock()
		return fmt.Errorf("%w: resume a %s job", ErrBadTransition, state)
	}
	j.state = StateQueued
	j.pauseReq = false
	j.updated = time.Now()
	j.mu.Unlock()

	select {
	case s.queue <- j:
	default:
		j.mu.Lock()
		j.state = StatePaused
		j.mu.Unlock()
		s.metrics.queueFullRejections.Add(1)
		return fmt.Errorf("%w (%d jobs)", ErrQueueFull, s.cfg.QueueDepth)
	}
	s.metrics.resumes.Add(1)
	j.emitJobEvent("resumed", "")
	return nil
}

// ResizeJob changes a job's processor count. A job that has not started
// yet (no checkpoint to be mismatched against) just has its config
// updated and builds at the new size; any job holding old-size state —
// running, or paused/retrying/queued with a checkpoint — records the
// request and applies it at its next running step boundary: checkpoint,
// in-place grid resize with every nest redistributed, resume. Terminal
// jobs reject with ErrBadTransition. Resizing to the current size is a
// no-op.
func (s *Scheduler) ResizeJob(id string, procs int) error {
	if procs < 1 {
		return fmt.Errorf("service: invalid processor count %d", procs)
	}
	j, err := s.lookup(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return fmt.Errorf("%w: resize a %s job", ErrBadTransition, j.state)
	}
	if procs == j.Cfg.Cores && j.resizeReq == 0 {
		return nil
	}
	if j.state != StateRunning && len(j.checkpoint) == 0 && len(j.lastGood) == 0 {
		// Not yet started: the next attempt simply builds at the new size.
		j.Cfg.Cores = procs
		j.resizeReq = 0
		j.updated = time.Now()
		j.emitJobEventLocked("resize", fmt.Sprintf("repriced to %d procs before first run", procs))
		return nil
	}
	// Holds old-size pipeline state: resize at the next running step
	// boundary (a paused or retrying job applies it when it next runs).
	j.resizeReq = procs
	j.updated = time.Now()
	return nil
}

// resizeRun applies a pending resize to a running job at a step boundary.
// Sequence: pre-resize checkpoint (the crash anchor — a death anywhere
// past it retries from old-size state at the old core count), in-place
// pipeline resize through internal/elastic, config + trace + metrics
// update, post-resize checkpoint (so retries and adoptions from here on
// restore at the new size). A resize that fails cleanly is counted and
// the job keeps stepping at its old size.
func (s *Scheduler) resizeRun(j *Job, r *run, cfg *JobConfig, procs int) {
	if procs == cfg.Cores {
		return
	}
	from := cfg.Cores
	s.autoCheckpoint(j, r, *cfg)
	if cfg.Faults != nil {
		cfg.Faults.ResizeCrash()
	}
	start := time.Now()
	rep, err := elastic.Resize(r.pipe, procs, cfg.Machine, cfg.CoresPerNode)
	if err != nil {
		s.metrics.resizeFailures.Add(1)
		j.emitJobEvent("resize_failed", fmt.Sprintf("%d -> %d procs: %v", from, procs, err))
		return
	}
	d := time.Since(start)
	// The resize rebuilt tracker and nest state ULP-equivalently, not
	// bit-identically, and the processor geometry changed under every
	// shadow the delta writer holds: invalidate it so the post-resize
	// checkpoint below opens a fresh chain with a full base.
	r.ckw.Invalidate()
	cfg.Cores = procs
	j.mu.Lock()
	j.Cfg.Cores = procs
	j.updated = time.Now()
	j.emitJobEventLocked("resize", fmt.Sprintf("%d -> %d procs: %d nests remapped, %d bytes moved, modelled redist %.3gs",
		from, procs, rep.Nests, rep.MovedBytes, rep.RedistTime))
	j.mu.Unlock()
	s.metrics.jobsResized.Add(1)
	s.metrics.resizeDur.Observe(d)
	// The grid changed shape: retire every cached tile of the old epoch so
	// readers can never see a stale-grid tile, and stamp future snapshots
	// with the new epoch.
	j.pub.BumpEpoch()
	s.tiles.InvalidateJob(j.ID)
	if tr := j.obsTracer(); tr != nil {
		tr.EmitPhase(r.pipe.StepCount(), "resize", d)
	}
	s.autoCheckpoint(j, r, *cfg)
}

// Shutdown drains the scheduler: no new submissions or resumes are
// accepted, running jobs checkpoint at their next step boundary and park
// as paused, and the call returns when every worker has finished or ctx
// expires. Queued jobs simply stay queued in the registry.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.retryWG.Wait()
		if s.pers != nil {
			// All checkpoint producers are done: close the queue, let the
			// persister drain what's left, and wait for it to exit so no
			// file write outlives Shutdown.
			close(s.pers.ops)
			<-s.pers.done
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// quitting reports whether a drain has started.
func (s *Scheduler) quitting() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

// worker consumes the queue until the scheduler drains.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case <-s.kill:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one job from its current position (fresh, or from a
// pause/retry checkpoint) until it finishes, fails, pauses or is
// cancelled. A panic anywhere in the attempt — a worker crash — is
// recovered here: the job fails (or retries) with the captured stack, and
// the worker goroutine and its pool survive.
func (s *Scheduler) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued {
		// Cancelled or paused while sitting in the queue channel, or a
		// stale queue entry from a pause/resume cycle.
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.err = nil
	if j.started.IsZero() {
		j.started = time.Now()
	}
	started := j.started
	j.updated = time.Now()
	cfg := j.Cfg
	checkpoint := j.checkpoint
	tr := j.tracer
	j.mu.Unlock()

	// Deferred in reverse execution order: the panic handler runs first
	// (its retry/fail events must precede the attempt record), then the
	// attempt wall-time event, then — once the state is settled — the
	// ledger close if the job turned terminal.
	defer j.closeLedgerIfTerminal()
	attemptStart := time.Now()
	defer func() {
		if tr != nil {
			tr.Emit(obs.Event{Kind: obs.KindJob, Phase: "attempt", DurNS: time.Since(attemptStart).Nanoseconds()})
		}
	}()
	defer func() {
		if p := recover(); p != nil {
			s.metrics.workerPanics.Add(1)
			s.retryOrFail(j, fmt.Errorf("service: job panicked: %v\n%s", p, debug.Stack()))
		}
	}()

	var (
		r   *run
		err error
	)
	buildStart := time.Now()
	if len(checkpoint) > 0 {
		r, err = restoreRun(cfg, checkpoint)
	} else {
		r, err = newRun(cfg)
	}
	if tr != nil {
		tr.EmitPhase(0, "build", time.Since(buildStart))
	}
	if err != nil {
		s.retryOrFail(j, err)
		return
	}
	if tr != nil {
		r.pipe.SetTracer(tr)
	}
	// Attach the copy-on-write snapshot publisher to the pipeline's step
	// boundary; when the attempt ends — for any reason, including a panic —
	// the publisher goes idle so field readers get the last snapshot (or a
	// clean miss) instead of waiting out their timeout.
	r.pipe.SetSnapshotSink(&jobSink{j: j})
	j.pub.SetIdle(false)
	defer j.pub.SetIdle(true)
	if len(checkpoint) > 0 {
		// The restored pipeline may be older than the job's last observed
		// progress (a retry rolls back to the last good checkpoint), and a
		// restore can change the grid — cached tiles from the previous
		// attempt's epoch must never serve again.
		j.pub.BumpEpoch()
		s.tiles.InvalidateJob(j.ID)
		j.rebase(r.pipe)
	}

	delay := time.Duration(cfg.StepDelayMS) * time.Millisecond
	deadline := time.Duration(cfg.DeadlineMS) * time.Millisecond
	every := cfg.AutoCheckpointSteps
	lastCkpt := r.pipe.StepCount()
	for r.pipe.StepCount() < cfg.Steps {
		if s.dead() {
			// Simulated process death (Kill): stop mid-flight without
			// parking, checkpointing or touching disk, like a real crash.
			return
		}
		if s.quitting() {
			s.park(j, r)
			return
		}
		switch j.poll() {
		case fenceRequested:
			s.finishFenced(j, r)
			return
		case cancelRequested:
			s.finish(j, StateCancelled, nil, r)
			s.metrics.jobsCancelled.Add(1)
			return
		case pauseRequested:
			s.park(j, r)
			return
		}
		if procs := j.takeResize(); procs > 0 {
			s.resizeRun(j, r, &cfg, procs)
		}
		if deadline > 0 && time.Since(started) > deadline {
			s.finish(j, StateFailed, fmt.Errorf("%w (%s over %d steps, %d done)",
				ErrDeadlineExceeded, deadline, cfg.Steps, r.pipe.StepCount()), r)
			s.metrics.jobsFailed.Add(1)
			return
		}
		stepStart := time.Now()
		if err := r.pipe.Step(); err != nil {
			s.retryOrFail(j, err)
			return
		}
		s.metrics.stepDur.Observe(time.Since(stepStart))
		var obsStart time.Time
		if tr != nil {
			obsStart = time.Now()
		}
		fresh := j.observe(r.pipe)
		if tr != nil {
			tr.EmitPhase(r.pipe.StepCount(), "observe", time.Since(obsStart))
		}
		s.metrics.stepsExecuted.Add(1)
		s.metrics.adaptationEvents.Add(int64(len(fresh)))
		for _, e := range fresh {
			s.metrics.redistBytes.Add(int64(e.Metrics.Redist.RemoteBytes))
		}
		if j.takeCkptWant() {
			// A checkpoint export demanded a fresh boundary checkpoint;
			// cutting it here costs the loop exactly one normal
			// auto-checkpoint, never more.
			lastCkpt = r.pipe.StepCount()
			s.autoCheckpoint(j, r, cfg)
		} else if every > 0 && r.pipe.StepCount()-lastCkpt >= every && r.pipe.StepCount() < cfg.Steps {
			lastCkpt = r.pipe.StepCount()
			s.autoCheckpoint(j, r, cfg)
		}
		if delay > 0 {
			sleepStart := time.Now()
			time.Sleep(delay)
			if tr != nil {
				tr.EmitPhase(r.pipe.StepCount(), "sleep", time.Since(sleepStart))
			}
		}
	}
	s.finish(j, StateDone, nil, r)
	s.metrics.jobsCompleted.Add(1)
	s.metrics.jobDur.Observe(time.Since(started))
}

// autoCheckpoint snapshots a running job so a later retry loses at most
// AutoCheckpointSteps steps. The pipeline is encoded by the run's delta
// checkpoint writer — a full base or, when only some nests changed since
// the last cut, a delta blob a fraction of the size — and the encoded
// chain is handed to the background persister, so the step loop never
// waits on file I/O. A failed write (injected or real) is counted and
// skipped: the previous good chain stays authoritative and the writer's
// dirty tracking is invalidated, forcing the next cut to a full base.
func (s *Scheduler) autoCheckpoint(j *Job, r *run, cfg JobConfig) {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		s.metrics.ckptDur.Observe(d)
		if tr := j.obsTracer(); tr != nil {
			tr.EmitPhase(r.pipe.StepCount(), "checkpoint", d)
		}
	}()
	blob, full, err := r.ckw.Encode(r.pipe)
	s.metrics.ckptEncodeDur.Observe(time.Since(start))
	if err == nil && cfg.Faults != nil {
		// The encoded bytes replay through the fault plan's checkpoint
		// writer so injected torn/failed writes keep their semantics.
		if _, werr := cfg.Faults.WrapCheckpoint(io.Discard).Write(blob); werr != nil {
			err = werr
		}
	}
	if err != nil {
		r.ckw.Invalidate()
		s.metrics.checkpointFailures.Add(1)
		return
	}
	chain := j.appendCheckpoint(blob, full)
	tail := chain[len(chain)-len(blob):]
	s.metrics.autoCheckpoints.Add(1)
	if full {
		s.metrics.fullCheckpoints.Add(1)
	} else {
		s.metrics.deltaCheckpoints.Add(1)
	}
	s.metrics.checkpointBytes.Set(int64(len(chain)))
	s.metrics.checkpointBytesTotal.Add(int64(len(blob)))
	s.enqueuePersist(j, chain, tail, full, nil)
}

// enqueuePersist hands a checkpoint chain to the background persister
// (no-op without a CheckpointDir). The job's config and epoch are
// captured under j.mu now — not when the op is applied — so a concurrent
// resize or epoch bump can't mislabel bytes encoded before it. When done
// is non-nil it is closed once the op has been applied (or dropped by a
// kill); park waits on it so a drain leaves complete files.
func (s *Scheduler) enqueuePersist(j *Job, chain, tail []byte, full bool, done chan struct{}) {
	if s.pers == nil {
		if done != nil {
			close(done)
		}
		return
	}
	j.mu.Lock()
	op := ckptOp{j: j, id: j.ID, cfg: j.Cfg, epoch: j.epoch, chain: chain, tail: tail, full: full, done: done}
	j.mu.Unlock()
	select {
	case s.pers.ops <- op:
	case <-s.kill:
		if done != nil {
			close(done)
		}
	}
}

// retryOrFail decides what a failed attempt becomes: a scheduled retry
// from the last good checkpoint, or a terminal failure. Deadline
// overruns never reach here (they fail terminally in runJob); a cancel
// requested while the attempt was dying wins over both.
func (s *Scheduler) retryOrFail(j *Job, err error) {
	j.mu.Lock()
	if j.state != StateRunning {
		// Already transitioned elsewhere; nothing to decide.
		j.mu.Unlock()
		return
	}
	if j.fenceReq {
		j.state = StateFenced
		j.err = nil
		j.checkpoint = nil
		j.pauseReq, j.cancelReq, j.fenceReq = false, false, false
		j.updated = time.Now()
		j.emitJobEventLocked("fenced", "")
		j.mu.Unlock()
		s.metrics.jobsFenced.Add(1)
		return
	}
	if j.cancelReq {
		j.state = StateCancelled
		j.err = nil
		j.checkpoint = nil
		j.pauseReq, j.cancelReq = false, false
		j.updated = time.Now()
		j.emitJobEventLocked("cancelled", "")
		epoch := j.epoch
		j.mu.Unlock()
		s.metrics.jobsCancelled.Add(1)
		s.removeCheckpointFile(j.ID, epoch)
		return
	}
	if j.retries >= j.Cfg.MaxRetries {
		j.state = StateFailed
		j.err = err
		j.checkpoint = nil
		j.pauseReq = false
		j.updated = time.Now()
		j.emitJobEventLocked("failed", err.Error())
		j.mu.Unlock()
		s.metrics.jobsFailed.Add(1)
		return
	}
	j.retries++
	attempt := j.retries
	j.state = StateRetrying
	j.err = err
	// Resume from the last good auto-checkpoint; with none yet, the nil
	// checkpoint restarts the job from scratch.
	j.checkpoint = j.lastGood
	j.pauseReq = false
	j.updated = time.Now()
	j.emitJobEventLocked("retry", fmt.Sprintf("attempt %d: %v", attempt, err))
	cfg := j.Cfg // copied under mu: a concurrent resize mutates Cfg.Cores
	j.mu.Unlock()
	s.metrics.jobRetries.Add(1)
	s.scheduleRetry(j, retryBackoff(cfg, j.ID, attempt))
}

// retryBackoff is exponential in the attempt number with ±25% jitter,
// capped at 30s. The jitter is deterministic per (job, attempt) so chaos
// runs reproduce exactly.
func retryBackoff(cfg JobConfig, id string, attempt int) time.Duration {
	base := time.Duration(cfg.RetryBackoffMS) * time.Millisecond
	d := base << uint(attempt-1)
	if max := 30 * time.Second; d > max || d <= 0 {
		d = 30 * time.Second
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", id, attempt)
	rng := rand.New(rand.NewSource(int64(h.Sum64()) ^ cfg.Seed))
	return time.Duration(float64(d) * (0.75 + 0.5*rng.Float64()))
}

// scheduleRetry re-enqueues j after the backoff elapses. The timer
// goroutine is tracked by retryWG so Shutdown drains it; on a drain the
// retrying job parks as paused with its checkpoint, exactly like a
// running job caught by a drain.
func (s *Scheduler) scheduleRetry(j *Job, backoff time.Duration) {
	s.retryWG.Add(1)
	go func() {
		defer s.retryWG.Done()
		t := time.NewTimer(backoff)
		defer t.Stop()
		select {
		case <-t.C:
		case <-s.kill:
			return
		case <-s.quit:
			s.parkRetrying(j)
			return
		}
		j.mu.Lock()
		if j.state != StateRetrying {
			// Cancelled or paused while waiting out the backoff.
			j.mu.Unlock()
			return
		}
		j.state = StateQueued
		j.updated = time.Now()
		j.mu.Unlock()
		select {
		case s.queue <- j:
		case <-s.kill:
		case <-s.quit:
			j.mu.Lock()
			if j.state == StateQueued {
				j.state = StatePaused
				j.updated = time.Now()
			}
			j.mu.Unlock()
		}
	}()
}

// parkRetrying converts a backoff wait into a paused job during a drain.
func (s *Scheduler) parkRetrying(j *Job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateRetrying {
		j.state = StatePaused
		j.updated = time.Now()
		j.emitJobEventLocked("paused", "drain while awaiting retry")
	}
}

// removeCheckpointFile drops a terminal job's persisted checkpoint —
// unless the store's file carries a higher epoch, in which case it
// belongs to the worker that adopted the job and must survive this
// copy's death. The removal also poisons the persister's state for the
// job, so a persist op still sitting in the queue cannot resurrect the
// file after the job went terminal.
func (s *Scheduler) removeCheckpointFile(id string, epoch int64) {
	if s.pers == nil {
		return
	}
	s.pers.remove(id, epoch)
}

// park checkpoints a running job and leaves it paused. If the pause
// checkpoint itself fails to write (an injected or real I/O error), the
// job falls back to its last good auto-checkpoint — losing at most
// AutoCheckpointSteps steps — and only fails when no checkpoint exists at
// all. Unlike auto-checkpoints, a park waits for its persist to land:
// the worker is parking anyway, and a drain must leave complete files.
func (s *Scheduler) park(j *Job, r *run) {
	ckptStart := time.Now()
	blob, full, err := r.ckw.Encode(r.pipe)
	s.metrics.ckptEncodeDur.Observe(time.Since(ckptStart))
	if err == nil && j.Cfg.Faults != nil {
		if _, werr := j.Cfg.Faults.WrapCheckpoint(io.Discard).Write(blob); werr != nil {
			err = werr
		}
	}
	s.metrics.ckptDur.Observe(time.Since(ckptStart))
	if tr := j.obsTracer(); tr != nil {
		tr.EmitPhase(r.pipe.StepCount(), "checkpoint", time.Since(ckptStart))
	}
	j.mu.Lock()
	j.pauseReq = false
	if err != nil {
		r.ckw.Invalidate()
		s.metrics.checkpointFailures.Add(1)
		if len(j.lastGood) > 0 {
			j.checkpoint = j.lastGood
			j.state = StatePaused
			j.updated = time.Now()
			j.emitJobEventLocked("paused", "pause checkpoint failed; kept last good auto-checkpoint")
			j.mu.Unlock()
			s.metrics.pauses.Add(1)
			return
		}
		j.state = StateFailed
		j.err = fmt.Errorf("service: pause checkpoint: %w", err)
		j.updated = time.Now()
		j.emitJobEventLocked("failed", j.err.Error())
		j.mu.Unlock()
		s.metrics.jobsFailed.Add(1)
		return
	}
	chain := j.appendCheckpointLocked(blob, full)
	tail := chain[len(chain)-len(blob):]
	j.checkpoint = chain
	j.state = StatePaused
	j.updated = time.Now()
	j.emitJobEventLocked("paused", "")
	j.mu.Unlock()
	s.metrics.pauses.Add(1)
	if full {
		s.metrics.fullCheckpoints.Add(1)
	} else {
		s.metrics.deltaCheckpoints.Add(1)
	}
	s.metrics.checkpointBytes.Set(int64(len(chain)))
	s.metrics.checkpointBytesTotal.Add(int64(len(blob)))
	done := make(chan struct{})
	s.enqueuePersist(j, chain, tail, full, done)
	select {
	case <-done:
	case <-s.kill:
	}
}

// finish moves a job to a terminal state.
func (s *Scheduler) finish(j *Job, state JobState, err error, r *run) {
	if r != nil {
		j.observe(r.pipe)
	}
	j.mu.Lock()
	j.state = state
	j.err = err
	j.checkpoint = nil
	j.pauseReq = false
	j.cancelReq = false
	j.updated = time.Now()
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	j.emitJobEventLocked(string(state), detail)
	// Under j.mu, as Cancel does it: whoever sees the terminal state sees
	// the mirror gone, even when the persister is still mid-fsync on an
	// earlier checkpoint of this job.
	s.removeCheckpointFile(j.ID, j.epoch)
	j.mu.Unlock()
}

// finishFenced terminates a superseded running copy. It deliberately
// skips every store interaction finish performs: the checkpoint file now
// belongs to the adopter, and deleting or rewriting it here would be
// exactly the split-brain race fencing exists to prevent.
func (s *Scheduler) finishFenced(j *Job, r *run) {
	if r != nil {
		j.observe(r.pipe)
	}
	j.mu.Lock()
	j.state = StateFenced
	j.err = nil
	j.checkpoint = nil
	j.pauseReq, j.cancelReq, j.fenceReq = false, false, false
	j.updated = time.Now()
	j.emitJobEventLocked("fenced", "local copy superseded by a newer placement epoch")
	j.mu.Unlock()
	s.metrics.jobsFenced.Add(1)
}

// CountsByState returns the number of jobs in each lifecycle state — the
// jobs-by-state gauge of GET /metrics.
func (s *Scheduler) CountsByState() map[JobState]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[JobState]int, 8)
	for _, j := range s.jobs {
		out[j.State()]++
	}
	return out
}

// States lists every lifecycle state in display order.
func States() []JobState {
	return []JobState{StateQueued, StateRunning, StatePaused, StateRetrying, StateDone, StateFailed, StateCancelled, StateFenced}
}
