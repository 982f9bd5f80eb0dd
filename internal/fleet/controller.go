package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"nestdiff/internal/durable"
	"nestdiff/internal/faults"
	"nestdiff/internal/obs"
	"nestdiff/internal/service"
)

// Config tunes a Controller.
type Config struct {
	// LivenessDeadline is how long a worker may stay silent before it is
	// declared dead and its jobs are adopted by survivors. It must exceed
	// the workers' heartbeat interval by a healthy multiple (the default
	// pairing is 2s heartbeats, 6s deadline).
	LivenessDeadline time.Duration
	// SweepInterval is the period of the liveness/adoption/refresh sweep.
	// Zero means 1s.
	SweepInterval time.Duration
	// MaxPending caps fleet-wide non-terminal placements; admission beyond
	// it sheds with 429 + Retry-After. Zero disables the controller-level
	// cap (worker queue-full 429s still propagate).
	MaxPending int
	// RetryAfterSeconds is the Retry-After hint on shed requests. Zero
	// means service.DefaultRetryAfterSeconds.
	RetryAfterSeconds int
	// Replicas is the number of ring vnodes per worker (0 = 64).
	Replicas int
	// StateDir, when non-empty, makes the placement table durable: every
	// placement, epoch and membership mutation is journaled to
	// <StateDir>/placements.wal (append-only, CRC-per-line, fsync-per-
	// append) and replayed on startup, so a controller kill -9 loses no
	// placements and causes no re-registration storm. Empty keeps the
	// table in memory only.
	StateDir string
	// Faults, when non-nil, is consulted before every controller→worker
	// call: a blocked link (faults.Plan.Partition) makes the call fail as
	// an unreachable network would. Chaos drills only.
	Faults *faults.Plan
	// Client overrides the HTTP client used for worker calls (tests); nil
	// uses a 10s-timeout default.
	Client *http.Client
}

// placement is the controller's record of one job: where it lives, the
// config to re-create it from if its worker dies before checkpointing,
// and the last state the controller observed. The controller never holds
// simulation data — config and identity only.
type placement struct {
	ID        string           `json:"id"`
	WorkerID  string           `json:"worker"`
	State     service.JobState `json:"state"`
	Adoptions int              `json:"adoptions"`
	// Epoch is the placement's fencing token: bumped on every adoption and
	// migration, stamped into the owning worker's checkpoints and
	// heartbeats. A worker reporting this job under a lower epoch holds a
	// superseded copy and is told to fence it.
	Epoch int64 `json:"epoch"`

	// floor is the highest epoch ever allocated for this job, including
	// attempts whose reply was lost (>= Epoch). Allocating above it keeps
	// epochs unique across copies — the invariant the worker-side fence
	// guard and the reconcile path both stand on.
	floor int64

	cfg service.JobConfig
}

// Controller is the fleet control plane. See the package comment for the
// design; NewController starts the sweep loop, Close stops it.
type Controller struct {
	cfg     Config
	reg     *registry
	metrics *metrics
	client  *http.Client
	// stream shares client's transport (and so any injected faults) but
	// drops its deadline: SSE proxy streams stay open as long as the
	// client and worker do, which the 10s control-call timeout would kill.
	stream   *http.Client
	wal      *durable.Log[walRecord] // nil without StateDir
	instance string                  // fresh per process; lets agents detect restarts

	// walMu orders compactions against journal-then-mutate pairs: held
	// across a record's append and its table mutation (journalThen) and
	// across CompactWAL's snapshot and rewrite, so a compaction never
	// squashes a record whose mutation its snapshot lacks.
	walMu sync.Mutex

	mu         sync.Mutex
	placements map[string]*placement
	order      []string
	seq        int

	// walAppends counts records appended since the last compaction — the
	// cheap half of the compaction trigger.
	walAppends atomic.Int64

	// autoCancel stops the autoscaler's loop, when one is enabled, on Close.
	autoCancel context.CancelFunc

	// moveMu serializes migration passes: the sweep's rebalance and an
	// operator-initiated Drain otherwise race to move the same placement
	// (double pause/export, double import, one spurious failure).
	moveMu sync.Mutex

	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewController starts a controller and its background sweep.
func NewController(cfg Config) *Controller {
	if cfg.LivenessDeadline <= 0 {
		cfg.LivenessDeadline = 6 * time.Second
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = time.Second
	}
	if cfg.RetryAfterSeconds <= 0 {
		cfg.RetryAfterSeconds = service.DefaultRetryAfterSeconds
	}
	c := &Controller{
		cfg:        cfg,
		reg:        newRegistry(cfg.Replicas),
		metrics:    newMetrics(),
		client:     cfg.Client,
		instance:   fmt.Sprintf("c-%d-%d", os.Getpid(), time.Now().UnixNano()),
		placements: make(map[string]*placement),
		quit:       make(chan struct{}),
	}
	if c.client == nil {
		c.client = &http.Client{Timeout: 10 * time.Second}
	}
	c.stream = &http.Client{Transport: c.client.Transport}
	if cfg.StateDir != "" {
		c.replayState(filepath.Join(cfg.StateDir, "placements.wal"))
	}
	c.wg.Add(1)
	go c.sweeper()
	return c
}

// replayState opens the placement WAL, repairs any torn tail and rebuilds
// the placement table, membership view and counters the previous process
// held. Replayed workers come back live with a fresh liveness stamp: they
// never stopped heartbeating, so the restarted controller treats their
// next beat as routine instead of forcing a fleet-wide re-registration. A
// WAL that cannot be opened leaves the controller running in-memory only
// (counted, not fatal — availability beats durability for a control plane
// whose workers keep running regardless).
func (c *Controller) replayState(path string) {
	w, records, truncated, err := durable.Open[walRecord](path)
	if err != nil {
		c.metrics.walFailures.Add(1)
		return
	}
	c.wal = w
	c.metrics.walTruncations.Add(int64(truncated))
	now := time.Now()
	for _, rec := range records {
		c.metrics.walRecords.Add(1)
		switch rec.Op {
		case walOpRegister:
			c.reg.restore(rec.Worker, rec.URL, true, now)
		case walOpDead:
			c.reg.markDead(rec.Worker)
			c.metrics.workersDead.Add(1)
		case walOpPlace:
			var jcfg service.JobConfig
			if json.Unmarshal(rec.Cfg, &jcfg) != nil {
				continue
			}
			if _, ok := c.placements[rec.JobID]; !ok {
				c.order = append(c.order, rec.JobID)
			}
			c.placements[rec.JobID] = &placement{
				ID: rec.JobID, WorkerID: rec.Worker, Epoch: rec.Epoch,
				floor: rec.Epoch, State: service.StateQueued, cfg: jcfg,
			}
			var n int
			if _, err := fmt.Sscanf(rec.JobID, "f-%d", &n); err == nil && n > c.seq {
				c.seq = n
			}
			c.metrics.jobsPlaced.Add(1)
		case walOpAdopt:
			if p, ok := c.placements[rec.JobID]; ok {
				p.WorkerID, p.Epoch = rec.Worker, rec.Epoch
				if rec.Epoch > p.floor {
					p.floor = rec.Epoch
				}
				p.Adoptions++
				c.metrics.adoptions.Add(1)
			}
		case walOpMove:
			if p, ok := c.placements[rec.JobID]; ok {
				p.WorkerID, p.Epoch = rec.Worker, rec.Epoch
				if rec.Epoch > p.floor {
					p.floor = rec.Epoch
				}
				c.metrics.migrations.Add(1)
			}
		case walOpEpoch:
			// An allocation intent: some worker may hold a copy at this
			// epoch even though no success was recorded. Replaying it keeps
			// the restarted controller from ever re-handing the epoch out.
			if p, ok := c.placements[rec.JobID]; ok && rec.Epoch > p.floor {
				p.floor = rec.Epoch
			}
		case walOpState:
			if p, ok := c.placements[rec.JobID]; ok {
				p.State = service.JobState(rec.State)
			}
		case walOpCfg:
			// An in-place config update (a resize changed the core count).
			// Only the config mutates: epochs and ownership are exactly as
			// the surrounding records left them.
			if p, ok := c.placements[rec.JobID]; ok {
				var jcfg service.JobConfig
				if json.Unmarshal(rec.Cfg, &jcfg) == nil {
					p.cfg = jcfg
				}
			}
		}
	}
}

// allocEpoch hands out the next fencing epoch for an adoption or
// migration attempt, journaling the allocation BEFORE any worker can see
// it. An epoch is never reused: a retry after a lost reply draws a
// strictly higher one, so no two copies of a job ever run under the same
// epoch. That uniqueness is what lets a worker ignore fence commands
// carrying an epoch at or below its own (Scheduler.Fence) and lets the
// controller treat any report above its table as a lost-reply success to
// reconcile rather than a stale copy to kill (fenceList).
func (c *Controller) allocEpoch(p *placement) int64 {
	c.mu.Lock()
	if p.floor < p.Epoch {
		p.floor = p.Epoch
	}
	p.floor++
	next := p.floor
	c.mu.Unlock()
	c.journal(walRecord{Op: walOpEpoch, JobID: p.ID, Epoch: next})
	return next
}

// journalThen journals rec and then applies its mutation, both under
// walMu (see Controller.walMu). A mutation applied before its record is
// journaled needs no such guard: a compaction in between snapshots the
// mutation, and replaying the record again after it changes nothing.
func (c *Controller) journalThen(rec walRecord, apply func()) {
	c.walMu.Lock()
	defer c.walMu.Unlock()
	c.journal(rec)
	apply()
}

// journal appends one mutation to the WAL (a no-op without StateDir).
func (c *Controller) journal(rec walRecord) {
	if c.wal == nil {
		return
	}
	err := c.wal.Append(rec)
	if err == nil {
		err = c.wal.Sync()
	}
	if err != nil {
		c.metrics.walFailures.Add(1)
		return
	}
	c.metrics.walRecords.Add(1)
	c.walAppends.Add(1)
}

// linkDown reports whether the controller→worker direction of a link is
// partitioned by the fault plan (nil-safe; always false outside chaos
// drills).
func (c *Controller) linkDown(workerID string) bool {
	return c.cfg.Faults.LinkBlocked(faults.ControllerNode, workerID)
}

// Close stops the sweep loop (and the autoscaler, if enabled) and syncs
// the WAL.
func (c *Controller) Close() {
	c.once.Do(func() {
		close(c.quit)
		if c.autoCancel != nil {
			c.autoCancel()
		}
	})
	c.wg.Wait()
	c.wal.Close()
}

// Metrics returns the controller's metric table; tests read one family
// with Value. The roll-up families are as of the latest Stats.
func (c *Controller) Metrics() *obs.Registry { return c.metrics.reg }

// sweeper runs the periodic liveness check, adoption pass and placement
// state refresh.
func (c *Controller) sweeper() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-t.C:
			c.Sweep()
		}
	}
}

// Sweep runs one liveness/adoption/refresh pass. It is exported so tests
// (and operators via future admin verbs) can force a pass instead of
// waiting out the interval.
func (c *Controller) Sweep() {
	now := time.Now()
	dead := c.reg.expire(c.cfg.LivenessDeadline, now)
	for _, w := range dead {
		c.metrics.workersDead.Add(1)
		c.journal(walRecord{Op: walOpDead, Worker: w.ID})
	}
	c.adoptOrphans()
	c.refreshStates()
	c.rebalance()
	c.maybeCompact()
}

// walCompactMinAppends is the append floor below which compaction never
// triggers: squashing a short WAL buys nothing.
const walCompactMinAppends = 64

// maybeCompact squashes the placement WAL when it has grown past the
// floor and terminal placements dominate the table — the regime where
// most journaled history (epoch intents, moves, state churn of finished
// jobs) no longer changes what a replay reconstructs.
func (c *Controller) maybeCompact() {
	if c.wal == nil || c.walAppends.Load() < walCompactMinAppends {
		return
	}
	c.mu.Lock()
	total, terminal := len(c.placements), 0
	for _, p := range c.placements {
		if p.State.Terminal() {
			terminal++
		}
	}
	c.mu.Unlock()
	if total == 0 || terminal*2 <= total {
		return
	}
	c.CompactWAL()
}

// CompactWAL rewrites the placement WAL as a snapshot of the current
// state: membership records, then per placement (in placement order) a
// place record with the live config and epoch, its adoption count, an
// epoch-floor intent if the floor ran ahead, and its current state. The
// snapshot replays to exactly the table, counters and floors the
// controller holds now; everything the squashed history only restated is
// gone. Exported so tests and future admin verbs can force a pass.
func (c *Controller) CompactWAL() error {
	if c.wal == nil {
		return nil
	}
	c.walMu.Lock()
	defer c.walMu.Unlock()
	if err := c.wal.Compact(c.snapshotRecords()); err != nil {
		c.metrics.walFailures.Add(1)
		return err
	}
	c.walAppends.Store(0)
	c.metrics.walCompactions.Add(1)
	return nil
}

// adoptOrphans re-homes every non-terminal placement whose owner is not
// live onto the ring's choice among survivors. The survivor resumes the
// job from its latest checkpoint in the shared store (or from scratch if
// the job died before its first checkpoint); the controller only sends
// the job's identity and config — a cheap control message, never data. A
// placement that cannot be adopted now (no live workers, adopt call
// failed) stays orphaned and is retried every sweep.
func (c *Controller) adoptOrphans() {
	c.mu.Lock()
	var orphans []*placement
	for _, p := range c.placements {
		if p.State.Terminal() {
			continue
		}
		if w, ok := c.reg.get(p.WorkerID); !ok || !w.Live {
			orphans = append(orphans, p)
		}
	}
	c.mu.Unlock()
	for _, p := range orphans {
		target, ok := c.reg.owner(p.ID)
		if !ok || c.linkDown(target.ID) {
			continue // no reachable live workers; retry next sweep
		}
		epoch := c.allocEpoch(p)
		var snap service.Snapshot
		code, err := c.call(http.MethodPost, target.URL+"/fleet/adopt", placeBody(p.ID, epoch, p.cfg), 0, &snap)
		if err != nil || code/100 != 2 {
			c.metrics.adoptionFailures.Add(1)
			continue
		}
		c.journalThen(walRecord{Op: walOpAdopt, JobID: p.ID, Worker: target.ID, Epoch: epoch}, func() {
			c.mu.Lock()
			p.WorkerID = target.ID
			p.Epoch = epoch
			p.Adoptions++
			p.State = snap.State
			c.mu.Unlock()
		})
		c.metrics.adoptions.Add(1)
	}
}

// foldState records a freshly observed job state in the placement table
// and journals the first terminal observation — wherever it came from
// (sweep refresh, proxy reply, migration pause). Every observer funnels
// through here so the WAL sees each terminal transition exactly once: an
// unjournaled one would make a replayed table resurrect a finished job,
// and whichever observer reads the worker first consumes the transition.
func (c *Controller) foldState(p *placement, state service.JobState) {
	c.mu.Lock()
	first := state.Terminal() && !p.State.Terminal()
	p.State = state
	c.mu.Unlock()
	if first {
		c.journal(walRecord{Op: walOpState, JobID: p.ID, State: string(state)})
	}
}

// refreshStates pulls each live worker's job list and folds the states
// back into the placement table — this is what keeps MaxPending admission
// honest and lets GET /jobs answer from the controller without fanning
// out per request. Only terminal transitions are journaled (via
// foldState): they decide adoption and admission after a replay, while
// transient states are re-observed from the workers on the first sweep
// anyway.
func (c *Controller) refreshStates() {
	for _, w := range c.reg.live() {
		if c.linkDown(w.ID) {
			continue
		}
		var snaps []service.Snapshot
		if _, err := c.call(http.MethodGet, w.URL+"/jobs", nil, 0, &snaps); err != nil {
			continue
		}
		for _, sn := range snaps {
			c.mu.Lock()
			p, ok := c.placements[sn.ID]
			owned := ok && p.WorkerID == w.ID
			c.mu.Unlock()
			if owned {
				c.foldState(p, sn.State)
				c.reconcileCores(p, sn.Cores)
			}
		}
	}
}

// reconcileCores folds a worker-reported core count into the placement
// config, journaling the change (as a cfg record, never a re-place — see
// walOpCfg) so a replayed controller re-creates the job at its current
// size rather than its submitted one. Resizes apply at step boundaries on
// the worker, so the new count arrives here via the next state refresh or
// proxy reply, whichever observes it first.
func (c *Controller) reconcileCores(p *placement, cores int) {
	if cores <= 0 {
		return
	}
	c.mu.Lock()
	changed := p.cfg.Cores != cores
	if changed {
		p.cfg.Cores = cores
	}
	cfg := p.cfg
	c.mu.Unlock()
	if changed {
		c.metrics.resizesObserved.Add(1)
		c.journal(walRecord{Op: walOpCfg, JobID: p.ID, Cfg: journalConfig(cfg)})
	}
}

// activePlacements counts non-terminal placements (the MaxPending gauge).
func (c *Controller) activePlacements() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, p := range c.placements {
		if !p.State.Terminal() {
			n++
		}
	}
	return n
}

// place admits and places one job: consistent-hash owner, worker submit,
// placement record. Returns the worker snapshot.
func (c *Controller) place(cfg service.JobConfig) (service.Snapshot, WorkerInfo, error) {
	c.mu.Lock()
	c.seq++
	id := fmt.Sprintf("f-%d", c.seq)
	c.mu.Unlock()
	target, ok := c.reg.owner(id)
	if !ok {
		return service.Snapshot{}, WorkerInfo{}, errNoWorkers
	}
	if c.linkDown(target.ID) {
		c.metrics.placementFailures.Add(1)
		return service.Snapshot{}, target, fmt.Errorf("%w: link partitioned", errWorkerUnreachable)
	}
	const initialEpoch = 1
	var snap service.Snapshot
	code, err := c.call(http.MethodPost, target.URL+"/fleet/jobs", placeBody(id, initialEpoch, cfg), 0, &snap)
	if err != nil {
		c.metrics.placementFailures.Add(1)
		return service.Snapshot{}, target, fmt.Errorf("%w: %v", errWorkerUnreachable, err)
	}
	if code == http.StatusTooManyRequests {
		return service.Snapshot{}, target, errWorkerSaturated
	}
	if code/100 != 2 {
		c.metrics.placementFailures.Add(1)
		return service.Snapshot{}, target, fmt.Errorf("fleet: worker %s rejected placement with status %d", target.ID, code)
	}
	c.journalThen(walRecord{Op: walOpPlace, JobID: id, Worker: target.ID, Epoch: initialEpoch, Cfg: journalConfig(cfg)}, func() {
		c.mu.Lock()
		c.placements[id] = &placement{ID: id, WorkerID: target.ID, State: snap.State, Epoch: initialEpoch, floor: initialEpoch, cfg: cfg}
		c.order = append(c.order, id)
		c.mu.Unlock()
	})
	c.metrics.jobsPlaced.Add(1)
	return snap, target, nil
}

// Control-plane error taxonomy; the HTTP layer maps these.
var (
	errNoWorkers         = errors.New("fleet: no live workers")
	errWorkerUnreachable = errors.New("fleet: worker unreachable")
	errWorkerSaturated   = errors.New("fleet: worker submit queue full")
	errUnknownJob        = errors.New("fleet: no such job")
)

// placeBody is the {id, epoch, config} control message of placement and
// adoption.
func placeBody(id string, epoch int64, cfg service.JobConfig) []byte {
	body, _ := json.Marshal(struct {
		ID     string            `json:"id"`
		Epoch  int64             `json:"epoch"`
		Config service.JobConfig `json:"config"`
	}{id, epoch, cfg})
	return body
}

// lookupPlacement resolves a fleet job ID to its placement and the
// owner's current record.
func (c *Controller) lookupPlacement(id string) (*placement, WorkerInfo, error) {
	c.mu.Lock()
	p, ok := c.placements[id]
	var workerID string
	if ok {
		workerID = p.WorkerID // adoption/migration rewrite this under c.mu
	}
	c.mu.Unlock()
	if !ok {
		return nil, WorkerInfo{}, errUnknownJob
	}
	w, ok := c.reg.get(workerID)
	if !ok {
		return p, WorkerInfo{}, errWorkerUnreachable
	}
	return p, w, nil
}

// Placements lists the controller's placement table in placement order.
func (c *Controller) Placements() []placement {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]placement, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, *c.placements[id])
	}
	return out
}
