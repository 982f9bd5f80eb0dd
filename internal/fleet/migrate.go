package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"nestdiff/internal/service"
)

// Migration is the deliberate half of job movement — adoption handles
// dead owners, migration handles live ones. Two triggers share the same
// mechanics:
//
//   - Join rebalance: a worker joining the ring becomes the rightful owner
//     of ~jobs/N placements (the consistent ring's minimal-movement
//     property guarantees only jobs whose ring owner IS the newcomer ever
//     move — never between two pre-existing workers). Each sweep migrates
//     those placements to where the ring says they belong, exactly like
//     the paper's diffusion pass walks work toward under-loaded
//     processors.
//   - Drain: POST /fleet/drain (or a worker's SIGTERM) excludes the worker
//     from the ring and migrates everything it owns, so it can leave
//     without waiting out the liveness deadline and without a single lost
//     step.
//
// One job moves at a time: pause at a step boundary → export the
// checkpoint envelope → import on the new owner under a bumped epoch →
// resume there → fence the old copy. A failure at any point resumes the
// job where it was; the sweep retries next pass.

// errUnknownWorker reports a drain/deregister for a worker never seen.
var errUnknownWorker = fmt.Errorf("fleet: unknown worker")

// rebalance migrates every non-terminal placement whose live owner is no
// longer its ring owner — after a join or a drain this is exactly the
// minimal set the ring says must move.
func (c *Controller) rebalance() {
	c.moveMu.Lock()
	defer c.moveMu.Unlock()
	c.mu.Lock()
	candidates := make([]*placement, 0)
	for _, id := range c.order {
		p := c.placements[id]
		if !p.State.Terminal() {
			candidates = append(candidates, p)
		}
	}
	c.mu.Unlock()
	for _, p := range candidates {
		c.mu.Lock()
		curID := p.WorkerID
		c.mu.Unlock()
		target, ok := c.reg.owner(p.ID)
		if !ok || target.ID == curID {
			continue
		}
		cur, ok := c.reg.get(curID)
		if !ok || !cur.Live {
			continue // dead owner: the adoption pass handles it
		}
		c.migrate(p, cur, target)
	}
}

// Drain marks a worker as deliberately leaving and migrates everything it
// owns to the ring's new choices, one job at a time. It returns the
// number of placements moved; placements that could not move (no other
// worker, or a migration failure) are retried by the sweep while the
// worker stays draining. Draining is idempotent and cancelled by a
// re-registration.
func (c *Controller) Drain(workerID string) (int, error) {
	w, ok := c.reg.get(workerID)
	if !ok {
		return 0, fmt.Errorf("%w: %q", errUnknownWorker, workerID)
	}
	if c.reg.markDraining(workerID) {
		c.metrics.drains.Add(1)
	}
	// Serialize against the sweep's rebalance: a pass already in flight may
	// be moving this worker's jobs under the rebuilt ring right now.
	c.moveMu.Lock()
	defer c.moveMu.Unlock()
	c.mu.Lock()
	var owned []*placement
	for _, id := range c.order {
		p := c.placements[id]
		if p.WorkerID == workerID && !p.State.Terminal() {
			owned = append(owned, p)
		}
	}
	c.mu.Unlock()
	for _, p := range owned {
		target, ok := c.reg.owner(p.ID)
		if !ok || target.ID == workerID {
			continue // nowhere to go; the sweep retries when workers exist
		}
		c.migrate(p, w, target)
	}
	// Report what actually left, whoever moved it — a concurrent sweep may
	// have re-homed some of these placements before this pass got to them.
	moved := 0
	c.mu.Lock()
	for _, p := range owned {
		if p.WorkerID != workerID || p.State.Terminal() {
			moved++
		}
	}
	c.mu.Unlock()
	return moved, nil
}

// Deregister removes a worker from the fleet immediately — the clean-
// shutdown path a SIGTERM'd nestserved takes so survivors adopt its jobs
// on the next sweep instead of burning the liveness deadline telling a
// shutdown from a crash.
func (c *Controller) Deregister(workerID string) bool {
	if !c.reg.markDead(workerID) {
		return false
	}
	c.journal(walRecord{Op: walOpDead, Worker: workerID})
	c.metrics.workersDeregistered.Add(1)
	return true
}

// migrate moves one placement from a live worker to another: pause →
// poll to the step boundary → export → import under epoch+1 → resume →
// fence the old copy. Returns whether the placement moved.
func (c *Controller) migrate(p *placement, from, to WorkerInfo) bool {
	if c.linkDown(from.ID) || c.linkDown(to.ID) {
		return false
	}
	// Recheck ownership under the lock: the placement may have moved (an
	// adoption, or an earlier migration pass) since the caller collected
	// its candidates — pausing and polling the old worker's dead copy would
	// fold a stale terminal state into a live placement.
	c.mu.Lock()
	stillOwned := p.WorkerID == from.ID && !p.State.Terminal()
	c.mu.Unlock()
	if !stillOwned {
		return false
	}
	id := p.ID
	// Pause; 409 means the job is already paused or terminal, which the
	// poll below sorts out.
	if code, _ := c.call(http.MethodPost, from.URL+"/jobs/"+id+"/pause", nil, 0, nil); code/100 != 2 && code != http.StatusConflict {
		c.metrics.migrationFailures.Add(1)
		return false
	}
	snap, ok := c.awaitPaused(from, id)
	if !ok {
		c.metrics.migrationFailures.Add(1)
		return false
	}
	if snap.State.Terminal() {
		// Finished while we were deciding; nothing to move.
		c.foldState(p, snap.State)
		return false
	}
	var env []byte
	if _, err := c.call(http.MethodGet, from.URL+"/jobs/"+id+"/checkpoint", nil, 0, &env); err != nil {
		c.metrics.migrationFailures.Add(1)
		c.call(http.MethodPost, from.URL+"/jobs/"+id+"/resume", nil, 0, nil)
		return false
	}
	newEpoch := c.allocEpoch(p)
	code, err := c.call(http.MethodPost, to.URL+"/jobs/"+id+"/import", env, newEpoch, nil)
	if err != nil || code/100 != 2 {
		c.metrics.migrationFailures.Add(1)
		c.call(http.MethodPost, from.URL+"/jobs/"+id+"/resume", nil, 0, nil)
		return false
	}
	if code, _ := c.call(http.MethodPost, to.URL+"/jobs/"+id+"/resume", nil, 0, nil); code/100 != 2 {
		// Imported but not resumed: the new copy is paused there and the
		// sweep's refresh will surface it; still complete the move so
		// exactly one worker owns the job.
		c.metrics.migrationFailures.Add(1)
	}
	c.journalThen(walRecord{Op: walOpMove, JobID: id, Worker: to.ID, Epoch: newEpoch}, func() {
		c.mu.Lock()
		p.WorkerID = to.ID
		p.Epoch = newEpoch
		p.State = service.StateQueued
		c.mu.Unlock()
	})
	c.metrics.migrations.Add(1)
	// Kill the paused source copy. Best-effort: if this fails the epoch
	// fence still protects the store, and the next heartbeat report fences
	// the stale copy through the control plane.
	c.fenceWorkerJob(from, id, newEpoch)
	return true
}

// awaitPaused polls a job until it leaves the running state (paused or
// terminal), bounded so a wedged worker cannot stall the sweep.
func (c *Controller) awaitPaused(w WorkerInfo, id string) (service.Snapshot, bool) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		var snap service.Snapshot
		if _, err := c.call(http.MethodGet, w.URL+"/jobs/"+id, nil, 0, &snap); err != nil {
			return service.Snapshot{}, false
		}
		if snap.State == service.StatePaused || snap.State.Terminal() {
			return snap, true
		}
		if time.Now().After(deadline) {
			return service.Snapshot{}, false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fenceWorkerJob tells a worker to kill its local copy of a job that now
// runs elsewhere under newEpoch.
func (c *Controller) fenceWorkerJob(w WorkerInfo, id string, newEpoch int64) {
	if c.linkDown(w.ID) {
		return
	}
	body, _ := json.Marshal(service.JobEpochReport{ID: id, Epoch: newEpoch})
	if code, err := c.call(http.MethodPost, w.URL+"/fleet/fence", body, 0, nil); err == nil && code/100 == 2 {
		c.metrics.fencesIssued.Add(1)
	}
}

// fenceList answers one heartbeat's job-epoch report: every reported job
// that the placement table assigns to a different worker — or to this
// worker under a higher epoch — is a stale copy the worker must kill.
// This is how a partitioned-then-healed worker learns its jobs moved on
// without it.
//
// A report ABOVE the table's epoch is the opposite case: epochs are
// allocated uniquely by this controller (allocEpoch), so a copy running
// under a higher epoch than the placement records can only be an
// adoption or import that succeeded while its reply was lost — or one
// whose table update is a few microseconds behind the worker's first
// heartbeat. Either way the copy is the job's rightful execution, and
// the table is reconciled to it instead of killing the survivor of the
// controller's own amnesia.
func (c *Controller) fenceList(workerID string, jobs []service.JobEpochReport) []service.JobEpochReport {
	var fenced []service.JobEpochReport
	var reclaimed []walRecord
	c.mu.Lock()
	for _, r := range jobs {
		p, ok := c.placements[r.ID]
		if !ok {
			continue // not fleet-managed by this controller; leave it alone
		}
		if r.Epoch > p.Epoch {
			p.WorkerID = workerID
			p.Epoch = r.Epoch
			if r.Epoch > p.floor {
				p.floor = r.Epoch
			}
			reclaimed = append(reclaimed, walRecord{Op: walOpMove, JobID: r.ID, Worker: workerID, Epoch: r.Epoch})
			continue
		}
		if p.WorkerID != workerID || r.Epoch < p.Epoch {
			fenced = append(fenced, service.JobEpochReport{ID: r.ID, Epoch: p.Epoch})
		}
	}
	c.mu.Unlock()
	for _, rec := range reclaimed {
		c.journal(rec)
		c.metrics.reconciles.Add(1)
	}
	c.metrics.fencesIssued.Add(int64(len(fenced)))
	return fenced
}

// call is the one controller→worker request. body (nil allowed) goes as
// JSON, or as a checkpoint envelope under X-Fleet-Epoch when epoch > 0. A
// 2xx reply decodes into out: raw into a *[]byte, as JSON otherwise, not
// at all when out is nil. A GET answered with anything but 200 is an
// error, and a JSON GET is a poll bounded by 5 s; a POST leaves its status
// to the caller. The reply body is drained on every path.
func (c *Controller) call(method, url string, body []byte, epoch int64, out any) (int, error) {
	ctx := context.Background()
	if _, raw := out.(*[]byte); method == http.MethodGet && !raw {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	if epoch > 0 {
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set("X-Fleet-Epoch", fmt.Sprintf("%d", epoch))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	defer io.Copy(io.Discard, resp.Body)
	switch {
	case method == http.MethodGet && resp.StatusCode != http.StatusOK:
		return resp.StatusCode, fmt.Errorf("fleet: %s %s: status %d", method, url, resp.StatusCode)
	case resp.StatusCode/100 != 2 || out == nil:
		return resp.StatusCode, nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw, err = io.ReadAll(resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}
