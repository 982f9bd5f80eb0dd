package serve

import (
	"errors"
	"sync"
	"time"

	"nestdiff/internal/field"
)

// ErrNoSnapshot reports that a job has no readable field snapshot: it
// has not completed a step boundary yet (still queued or building), or
// it went idle before any reader demanded one.
var ErrNoSnapshot = errors.New("serve: no field snapshot available")

// Snapshot is one immutable copy of a job's field state at a step
// boundary: the parent model variables plus each live nest's fine
// field. Once published it is never mutated — readers hold it across
// resizes, restores, even job completion — so tile encoding and HTTP
// reads need no locks at all.
type Snapshot struct {
	// Step is the parent step the snapshot was taken at.
	Step int
	// Epoch is the job's invalidation epoch at publication: bumped on
	// every resize or checkpoint restore, it keys the tile cache so a
	// pre-resize snapshot's tiles can never answer a post-resize read.
	Epoch int64
	// Vars holds the named fields: "qcloud" and "olr" for the parent
	// model, "nest:<id>" for each live nest (fine-grid coordinates).
	Vars map[string]*field.Field
}

// VarNames lists the snapshot's variables in no particular order.
func (s *Snapshot) VarNames() []string {
	out := make([]string, 0, len(s.Vars))
	for k := range s.Vars {
		out = append(out, k)
	}
	return out
}

// Publisher is one job's copy-on-write snapshot exchange between the
// worker goroutine stepping the pipeline (the only writer) and any
// number of HTTP readers.
//
// The protocol is demand-driven so the no-reader path stays free: at
// every step boundary the worker calls Publish, which with no waiting
// reader is a mutex-guarded integer store — zero allocations, zero field
// copies. When a reader has demanded state
// (Acquire on a stale or absent snapshot), the next Publish materializes
// an immutable Snapshot via the fill callback — field pointer copies
// resolved into private buffers on the worker's side of the step
// boundary, so the copy can never race the pipeline's own double-buffer
// swaps, resizes or restores — and wakes every waiter. A worker parked
// between steps (a throttled job) selects on Demanded and publishes the
// boundary it is parked at, so the read need not wait for the next step.
type Publisher struct {
	mu       sync.Mutex
	notify   chan struct{} // closed and replaced on every state change
	demanded chan struct{} // one token while demand is set
	step     int           // latest completed step the worker reported
	epoch    int64         // invalidation epoch (resize/restore bumps)
	demand   bool          // a reader wants a snapshot at the next boundary
	idle     bool          // worker parked or terminal: no future boundaries
	cur      *Snapshot
}

// NewPublisher returns a publisher that copies only on reader demand.
func NewPublisher() *Publisher {
	return &Publisher{notify: make(chan struct{}), demanded: make(chan struct{}, 1)}
}

// Demanded delivers a token when a reader demands a snapshot the worker
// has not yet materialized. Only a worker parked at a completed boundary
// may answer it, by calling Publish for that boundary; a worker mid-step
// leaves the token for the boundary that ends the step. Nil on a nil
// publisher, so a select on it never fires.
func (p *Publisher) Demanded() <-chan struct{} {
	if p == nil {
		return nil
	}
	return p.demanded
}

// wakeLocked signals every waiter that publisher state changed. Callers
// hold p.mu.
func (p *Publisher) wakeLocked() {
	close(p.notify)
	p.notify = make(chan struct{})
}

// Publish is the worker's step-boundary hook: it records that step
// completed and, if a reader demanded state, materializes a fresh
// snapshot from fill and returns it (nil when nothing was materialized).
// fill runs under the publisher lock on the worker goroutine, so it may
// read live pipeline state that only that goroutine mutates.
func (p *Publisher) Publish(step int, fill func() map[string]*field.Field) *Snapshot {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.publishLocked(step, fill)
}

// PublishIfStale is the worker's last publish before the attempt goes
// idle at a boundary (park, drain, deadline, done): when a snapshot was
// ever materialized and it is no longer of step, it materializes step
// even without a waiting reader, so readers of the paused or finished job
// see the boundary it stopped at rather than whatever step they last
// demanded. A job nobody read stays copy-free.
func (p *Publisher) PublishIfStale(step int, fill func() map[string]*field.Field) *Snapshot {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur != nil && (p.cur.Step != step || p.cur.Epoch != p.epoch) {
		p.demand = true
	}
	return p.publishLocked(step, fill)
}

func (p *Publisher) publishLocked(step int, fill func() map[string]*field.Field) *Snapshot {
	p.step = step
	p.idle = false
	if !p.demand {
		return nil
	}
	p.demand = false
	select {
	case <-p.demanded:
	default:
	}
	p.cur = &Snapshot{Step: step, Epoch: p.epoch, Vars: fill()}
	p.wakeLocked()
	return p.cur
}

// BumpEpoch advances the invalidation epoch — the worker calls it after
// an in-place resize or a checkpoint restore, so tiles of the old grid
// can never answer reads of the new one. The current snapshot (if any)
// stays readable under its old epoch until a fresh one is published.
func (p *Publisher) BumpEpoch() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.epoch++
	p.wakeLocked()
	p.mu.Unlock()
}

// Epoch returns the current invalidation epoch.
func (p *Publisher) Epoch() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// SetIdle marks whether the worker is between runs (parked, retrying,
// terminal): while idle, Acquire never waits for a boundary that is not
// coming and serves the last published snapshot instead.
func (p *Publisher) SetIdle(idle bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.idle = idle
	p.wakeLocked()
	p.mu.Unlock()
}

// Acquire returns a snapshot of the job's latest completed step: the
// current one if it is already fresh (same step and epoch), otherwise it
// demands materialization and waits — bounded by maxWait — for the
// worker to publish. A worker parked between steps answers at once with
// the boundary it is parked at; a stepping worker answers at the boundary
// that ends its step. When the worker is idle or the wait times out, the
// last published snapshot is returned: the worker publishes the boundary
// it stops at before going idle, so readers of a paused or finished job
// see its final state. ErrNoSnapshot means nothing was ever published.
func (p *Publisher) Acquire(maxWait time.Duration) (*Snapshot, error) {
	if p == nil {
		return nil, ErrNoSnapshot
	}
	deadline := time.NewTimer(maxWait)
	defer deadline.Stop()
	for {
		p.mu.Lock()
		cur := p.cur
		if cur != nil && cur.Step == p.step && cur.Epoch == p.epoch {
			p.mu.Unlock()
			return cur, nil
		}
		if p.idle {
			p.mu.Unlock()
			if cur != nil {
				return cur, nil
			}
			return nil, ErrNoSnapshot
		}
		p.demand = true
		select {
		case p.demanded <- struct{}{}:
		default:
		}
		ch := p.notify
		p.mu.Unlock()
		select {
		case <-ch:
		case <-deadline.C:
			if cur != nil {
				return cur, nil
			}
			return nil, ErrNoSnapshot
		}
	}
}

// Current returns the latest published snapshot without demanding a
// fresh one (nil when nothing was ever published).
func (p *Publisher) Current() *Snapshot {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cur
}
