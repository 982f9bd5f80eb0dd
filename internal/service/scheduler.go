package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
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
		id := strings.TrimSuffix(filepath.Base(p), ".ckpt")
		cfg, epoch, state, ok := s.readJobFile(id)
		if !ok {
			continue
		}
		if _, err := s.Import(id, epoch, cfg, state); err != nil {
			s.metrics.checkpointsCorrupt.Add(1)
			continue
		}
		s.metrics.checkpointsRecovered.Add(1)
	}
}

// readJobFile reads and decodes <CheckpointDir>/<id>.ckpt. A torn delta
// tail (the writer died mid-append) counts in checkpoints_truncated and
// yields the intact chain prefix, which is still restorable. Any other
// read or decode failure counts in checkpoints_corrupt. ok is false for a
// missing (uncounted) or corrupt file.
func (s *Scheduler) readJobFile(id string) (cfg JobConfig, epoch int64, state []byte, ok bool) {
	data, err := os.ReadFile(filepath.Join(s.cfg.CheckpointDir, id+".ckpt"))
	if err == nil {
		cfg, epoch, state, err = decodeJobCheckpoint(data)
	}
	switch {
	case err == nil:
	case errors.Is(err, core.ErrDeltaChainBroken):
		s.metrics.checkpointsTruncated.Add(1)
	case errors.Is(err, fs.ErrNotExist):
		return cfg, 0, nil, false
	default:
		s.metrics.checkpointsCorrupt.Add(1)
		return cfg, 0, nil, false
	}
	return cfg, epoch, state, true
}

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
	j, err := s.register(id, epoch, cfg, false, nil)
	if err != nil {
		return Snapshot{}, err
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Lock()
		s.unlinkLocked(j.ID)
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
	j.emitJobEvent("submitted", fmt.Sprintf("%s/%s, %d cores, %d steps", j.Cfg.Scenario, j.Cfg.Strategy, j.Cfg.Cores, j.Cfg.Steps))
	return j.Snapshot(), nil
}

// register is the one way a job enters the table, for Submit and Import
// alike: it fills the config's defaults (and the scheduler's fault plan),
// validates it, refuses work once draining, inserts the job under id (""
// draws the next job-N) and attaches its tracer. A submitted job starts
// queued; an imported one starts paused on its checkpoint (nil resumes
// from scratch) and may take its ID over from a terminal copy — a done,
// failed, cancelled or fenced job no longer owns it, and re-importing over
// it is how a job migrates back onto a worker that once fenced it. Any
// other holder of the ID conflicts.
func (s *Scheduler) register(id string, epoch int64, cfg JobConfig, imported bool, checkpoint []byte) (*Job, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Faults == nil {
		cfg.Faults = s.cfg.Faults
	}
	state := StateQueued
	if imported {
		state = StatePaused
	}
	now := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	if id == "" {
		s.seq++
		id = fmt.Sprintf("job-%d", s.seq)
	} else if prev, ok := s.jobs[id]; ok {
		if !imported || !prev.State().Terminal() {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrJobExists, id)
		}
		s.unlinkLocked(id)
	}
	s.bumpSeqLocked(id)
	j := &Job{
		ID:         id,
		Cfg:        cfg,
		state:      state,
		checkpoint: checkpoint,
		lastGood:   checkpoint,
		epoch:      epoch,
		pub:        serve.NewPublisher(),
		created:    now,
		updated:    now,
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.attachTracer(j, cfg)
	return j, nil
}

// unlinkLocked removes a job from the table. Callers hold s.mu.
func (s *Scheduler) unlinkLocked(id string) {
	delete(s.jobs, id)
	s.order = slices.DeleteFunc(s.order, func(o string) bool { return o == id })
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
	j, err := s.register(id, epoch, cfg, true, checkpoint)
	if err != nil {
		return Snapshot{}, err
	}
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
		if fileCfg, fileEpoch, state, ok := s.readJobFile(id); ok {
			cfg, checkpoint = fileCfg, state
			if fileEpoch > epoch {
				// Never adopt backwards: the store already carries a
				// higher epoch than the controller sent (a replayed WAL
				// lagging a later adoption).
				epoch = fileEpoch
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
// already gone); a running job fences at its next step boundary, and until
// then keeps its own epoch and cuts no checkpoint.
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
	if epoch > j.epoch {
		s.fenceLocked(j, epoch)
	}
	return nil
}

// fenceLocked supersedes j's copy by a higher placement epoch. The epoch
// waits beside the stop request and becomes j.epoch only when the copy
// settles fenced, so nothing the copy still writes carries the adopter's
// epoch. Callers hold j.mu.
func (s *Scheduler) fenceLocked(j *Job, epoch int64) {
	j.fenceEpoch = max(j.fenceEpoch, epoch)
	s.settleLocked(j, evFence, nil)
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

// Cancel terminates a job. Queued, paused and retrying jobs cancel at
// once; a running job cancels at its next step boundary, whatever its
// attempt reaches first.
func (s *Scheduler) Cancel(id string) error { return s.request(id, evCancel) }

// Pause suspends a job. A queued job pauses in place (and resumes from
// the start), a retrying one with the checkpoint its retry would have
// resumed from; a running job checkpoints at the next step boundary and
// parks, freeing its worker.
func (s *Scheduler) Pause(id string) error { return s.request(id, evPause) }

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
	if _, _, err = s.settle(j, evResume, nil); errors.Is(err, ErrQueueFull) {
		s.metrics.queueFullRejections.Add(1)
	}
	return err
}

// request applies one API request to a job.
func (s *Scheduler) request(id string, ev jobEvent) error {
	j, err := s.lookup(id)
	if err != nil {
		return err
	}
	_, _, err = s.settle(j, ev, nil)
	return err
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
	if _, _, err := s.settleLocked(j, evResize, nil); err != nil {
		return err
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
	s.autoCheckpoint(j, r)
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
	s.autoCheckpoint(j, r)
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
	if _, fx, _ := s.settleLocked(j, evStart, nil); !fx.run {
		// Cancelled or paused while sitting in the queue channel, or a
		// stale queue entry from a pause/resume cycle.
		j.mu.Unlock()
		return
	}
	started, cfg, checkpoint, tr := j.started, j.Cfg, j.checkpoint, j.tracer
	j.mu.Unlock()

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
	// The attempt owns the pipeline's mpi worlds: stop their rank workers
	// however it ends.
	defer r.pipe.Close()
	if tr != nil {
		r.pipe.SetTracer(tr)
	}
	// Attach the copy-on-write snapshot publisher to the pipeline's step
	// boundary; when the attempt ends — for any reason, including a panic —
	// the publisher goes idle so field readers get the last snapshot (or a
	// clean miss) instead of waiting out their timeout.
	sink := &jobSink{j: j, tiles: s.tiles, quit: s.quit, kill: s.kill}
	r.pipe.SetSnapshotSink(sink)
	j.pub.SetIdle(false)
	defer j.pub.SetIdle(true)
	if len(checkpoint) > 0 {
		// A restore can change the grid: cached tiles from the previous
		// attempt's epoch must never serve again.
		j.pub.BumpEpoch()
		s.tiles.InvalidateJob(j.ID)
	}
	// The job's view starts as exactly the built pipeline's: a retry rolls
	// back progress the failed attempt observed, and from here on every
	// step is observed before the next boundary can settle the job.
	j.rebase(r.pipe)

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
		ev := evBoundary
		if s.quitting() {
			ev = evDrain
		}
		switch to, fx, _ := s.settle(j, ev, nil); {
		case fx.park:
			sink.publishIfStale(r.pipe)
			s.park(j, r)
			return
		case to != StateRunning:
			return
		}
		if procs := j.takeResize(); procs > 0 {
			s.resizeRun(j, r, &cfg, procs)
		}
		if deadline > 0 && time.Since(started) > deadline {
			sink.publishIfStale(r.pipe)
			s.settle(j, evDeadline, fmt.Errorf("%w (%s over %d steps, %d done)",
				ErrDeadlineExceeded, deadline, cfg.Steps, r.pipe.StepCount()))
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
			s.autoCheckpoint(j, r)
		} else if every > 0 && r.pipe.StepCount()-lastCkpt >= every && r.pipe.StepCount() < cfg.Steps {
			lastCkpt = r.pipe.StepCount()
			s.autoCheckpoint(j, r)
		}
		if delay > 0 {
			sink.wait(r.pipe, delay, tr)
		}
	}
	sink.publishIfStale(r.pipe)
	s.settle(j, evDone, nil)
}

// autoCheckpoint cuts a running job's periodic checkpoint, so a later
// retry loses at most AutoCheckpointSteps steps, and hands it to the
// persister without waiting: the step loop never waits on file I/O.
func (s *Scheduler) autoCheckpoint(j *Job, r *run) {
	if op, err := s.cut(j, r); err == nil {
		s.metrics.autoCheckpoints.Add(1)
		s.persist(op, false)
	}
}

// cut encodes a boundary checkpoint with the run's delta writer — a full
// base or, when only some nests changed since the last cut, a delta blob —
// folds it into the job's restorable chain, and returns the op that mirrors
// the chain to the store. The op is captured under the lock that appends,
// so a later resize or epoch change cannot mislabel bytes encoded before
// it. The blob replays through the fault plan's checkpoint writer, so
// injected torn or failed writes keep their meaning. A failed cut is
// counted and invalidates the writer: the previous good chain stays
// authoritative and the next cut is a full base. A copy with a fence
// pending cuts nothing; the store now belongs to its adopter.
func (s *Scheduler) cut(j *Job, r *run) (ckptOp, error) {
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
	if err == nil && j.Cfg.Faults != nil {
		_, err = j.Cfg.Faults.WrapCheckpoint(io.Discard).Write(blob)
	}
	if err != nil {
		r.ckw.Invalidate()
		s.metrics.checkpointFailures.Add(1)
		return ckptOp{}, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.stop == stopFence {
		return ckptOp{}, errFencePending
	}
	chain := j.appendCheckpointLocked(blob, full)
	if full {
		s.metrics.fullCheckpoints.Add(1)
	} else {
		s.metrics.deltaCheckpoints.Add(1)
	}
	s.metrics.checkpointBytes.Set(int64(len(chain)))
	s.metrics.checkpointBytesTotal.Add(int64(len(blob)))
	return ckptOp{j: j, id: j.ID, cfg: j.Cfg, epoch: j.epoch, chain: chain, tail: chain[len(chain)-len(blob):], full: full}, nil
}

// errFencePending is cut's refusal on a copy awaiting its fence.
var errFencePending = errors.New("service: fence pending")

// persist hands a cut to the background persister (a no-op without a
// CheckpointDir); with wait, it returns once the write has landed. A kill
// abandons the hand-off and the wait, as a crash would.
func (s *Scheduler) persist(op ckptOp, wait bool) {
	if s.pers == nil {
		return
	}
	if wait {
		op.done = make(chan struct{})
	}
	select {
	case s.pers.ops <- op:
	case <-s.kill:
		return
	}
	if wait {
		select {
		case <-op.done:
		case <-s.kill:
		}
	}
}

// retryOrFail settles a failed attempt: a retry from the last good
// checkpoint (with none yet, from scratch) while the retry budget lasts, a
// terminal failure after it — unless a cancel or fence requested meanwhile
// wins. Deadline overruns never reach here; they fail terminally in runJob.
func (s *Scheduler) retryOrFail(j *Job, err error) {
	j.mu.Lock()
	ev := evFail
	if j.retries < j.Cfg.MaxRetries {
		ev = evRetry
	}
	to, _, _ := s.settleLocked(j, ev, err)
	attempt, cfg := j.retries, j.Cfg // under mu: a concurrent resize mutates Cfg.Cores
	j.mu.Unlock()
	if to == StateRetrying {
		s.scheduleRetry(j, retryBackoff(cfg, j.ID, attempt))
	}
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

// scheduleRetry re-enqueues j once the backoff elapses, waiting out
// another backoff whenever the queue is full. The timer goroutine is
// tracked by retryWG so Shutdown drains it; a drain parks the retrying job
// as paused with its checkpoint, exactly like a running job caught by a
// drain.
func (s *Scheduler) scheduleRetry(j *Job, backoff time.Duration) {
	s.retryWG.Add(1)
	go func() {
		defer s.retryWG.Done()
		t := time.NewTimer(backoff)
		defer t.Stop()
		for {
			select {
			case <-t.C:
			case <-s.kill:
				return
			case <-s.quit:
				s.settle(j, evDrain, nil)
				return
			}
			// A job paused, cancelled or fenced meanwhile ignores the backoff.
			if _, _, err := s.settle(j, evBackoff, nil); !errors.Is(err, ErrQueueFull) {
				return
			}
			t.Reset(backoff)
		}
	}()
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

// park checkpoints a running job and settles it with whatever request
// stands once the cut is done: paused on the fresh chain or, if the cut
// failed, on the last good one; failed when no chain exists at all; and
// cancelled or fenced when such a request arrived meanwhile. Unlike an
// auto-checkpoint, a park waits for its persist to land: the worker is
// parking anyway, and a drain must leave complete files.
func (s *Scheduler) park(j *Job, r *run) {
	op, err := s.cut(j, r)
	j.mu.Lock()
	ev, cause := evParked, error(nil)
	if err != nil {
		cause = fmt.Errorf("service: pause checkpoint: %w", err)
		if len(j.lastGood) == 0 {
			ev = evParkLost
		}
	}
	to, _, _ := s.settleLocked(j, ev, cause)
	j.mu.Unlock()
	if err == nil && to == StatePaused {
		s.persist(op, true)
	}
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
