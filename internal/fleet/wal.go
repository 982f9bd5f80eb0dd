package fleet

import (
	"encoding/json"

	"nestdiff/internal/service"
)

// The placement WAL makes the control plane's decisions durable: every
// placement, epoch bump, membership transition and terminal state is
// journaled as one record of a durable.Log — fsynced before (or atomically
// with) the in-memory table mutating — and a restarted controller replays
// the log to reconstruct the exact placement table, membership view and
// epoch counters it had when it died. Workers keep heartbeating into the
// new process with no re-registration storm, and no adoption fires for a
// job whose owner is alive. A torn tail (the final write of a kill -9) is
// truncated at open and counted; records before the tear survive.

// walOp enumerates the journaled mutations.
const (
	walOpPlace = "place" // job placed on a worker (initial epoch)
	walOpAdopt = "adopt" // job re-homed after its owner died
	walOpMove  = "move"  // job migrated (rebalance, drain) or reconciled
	walOpEpoch = "epoch" // epoch allocated for an attempt (intent, pre-send)
	walOpState = "state" // job reached a terminal state
	// walOpCfg updates a placement's job config in place (a resize changed
	// cores). Deliberately NOT a re-place: replaying a place record resets
	// Epoch and floor, and a cfg change must never reopen an
	// already-allocated epoch for reuse.
	walOpCfg      = "cfg"
	walOpRegister = "register" // worker joined (or changed URL)
	walOpDead     = "dead"     // worker declared dead or deregistered
)

// walRecord is one journaled mutation; fields are op-dependent.
type walRecord struct {
	Op     string          `json:"op"`
	JobID  string          `json:"job,omitempty"`
	Worker string          `json:"worker,omitempty"`
	URL    string          `json:"url,omitempty"`
	Epoch  int64           `json:"epoch,omitempty"`
	State  string          `json:"state,omitempty"`
	Cfg    json.RawMessage `json:"cfg,omitempty"`
}

// journalConfig marshals a job config for a place record.
func journalConfig(cfg service.JobConfig) json.RawMessage {
	b, err := json.Marshal(cfg)
	if err != nil {
		return nil
	}
	return b
}

// snapshotRecords builds the minimal record sequence whose replay
// reproduces the controller's current durable state: membership records,
// then per placement (in placement order) a place record with the live
// config and epoch, its adoption count, an epoch-floor intent if the floor
// ran ahead, and its current state.
func (c *Controller) snapshotRecords() []walRecord {
	var recs []walRecord
	for _, w := range c.reg.all() {
		recs = append(recs, walRecord{Op: walOpRegister, Worker: w.ID, URL: w.URL})
		if !w.Live {
			recs = append(recs, walRecord{Op: walOpDead, Worker: w.ID})
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.order {
		p := c.placements[id]
		recs = append(recs, walRecord{Op: walOpPlace, JobID: p.ID, Worker: p.WorkerID,
			Epoch: p.Epoch, Cfg: journalConfig(p.cfg)})
		for i := 0; i < p.Adoptions; i++ {
			recs = append(recs, walRecord{Op: walOpAdopt, JobID: p.ID, Worker: p.WorkerID, Epoch: p.Epoch})
		}
		if p.floor > p.Epoch {
			recs = append(recs, walRecord{Op: walOpEpoch, JobID: p.ID, Epoch: p.floor})
		}
		recs = append(recs, walRecord{Op: walOpState, JobID: p.ID, State: string(p.State)})
	}
	return recs
}
