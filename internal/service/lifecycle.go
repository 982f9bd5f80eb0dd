package service

import (
	"fmt"
	"time"

	"nestdiff/internal/obs"
)

// JobState is one stage of the job lifecycle. next is the whole lifecycle
// as one table; this is its picture:
//
//	queued ──start──▶ running ──done──▶ done
//	                     ├──deadline, or failed with no retry left──▶ failed
//	                     ├──failed, retry left──▶ retrying ──backoff──▶ queued
//	                     └──boundary under a pause, or drain: cut──▶ paused
//	                                         (failed if the cut fails with no
//	                                          checkpoint to fall back on)
//	queued, retrying ──pause──▶ paused ──resume──▶ queued
//	retrying ──drain──▶ paused
//	queued, paused, retrying ──cancel──▶ cancelled
//	queued, paused, retrying ──fence──▶ fenced
//
// A request never moves a running job directly. Pause, cancel and fence
// raise its stop request, which only rises (none < pause < cancel < fence)
// and which the worker settles at its next step boundary. A standing cancel
// or fence wins over every outcome the attempt reaches meanwhile — a cut, a
// failure, a deadline, even completion — because its caller was told yes.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StatePaused    JobState = "paused"
	StateRetrying  JobState = "retrying"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
	// StateFenced marks a job copy superseded by a higher placement epoch:
	// the controller adopted or migrated the job onto another worker while
	// this worker was partitioned or draining. A fenced copy terminates at
	// its next step boundary and — unlike every other terminal state — never
	// deletes the shared checkpoint file, which now belongs to the new owner.
	StateFenced JobState = "fenced"
)

// Terminal reports whether no further transitions are possible.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateFenced
}

// States lists every lifecycle state in display order.
func States() []JobState {
	return []JobState{StateQueued, StateRunning, StatePaused, StateRetrying, StateDone, StateFailed, StateCancelled, StateFenced}
}

// stopReq is the request standing against a running job, ordered so the
// stronger one wins.
type stopReq uint8

const (
	stopNone stopReq = iota
	stopPause
	stopCancel
	stopFence
)

// jobEvent is one operation the scheduler applies to a job.
type jobEvent uint8

const (
	// Requests from the API or the fleet; the API ones are refused with
	// ErrBadTransition where the job's state makes them meaningless.
	evPause jobEvent = iota
	evResume
	evCancel
	evFence
	evResize // changes no state; refused once the job is terminal
	// The scheduler's own operations on a job that is not running.
	evStart   // a worker took the job off the queue
	evBackoff // a retry's backoff elapsed
	// The outcomes of a running attempt, from evBoundary on (evDrain also
	// parks a retrying job).
	evBoundary // a step boundary
	evDrain    // the scheduler is draining
	evParked   // the pause cut landed, or failed with a last good chain to fall back on
	evParkLost // the pause cut failed and no checkpoint exists
	evRetry    // the attempt failed with a retry left
	evFail     // the attempt failed with none left
	evDeadline // the job outlived its deadline
	evDone     // the job ran all its steps
	numEvents
)

var eventNames = [numEvents]string{"pause", "resume", "cancel", "fence", "resize", "start", "backoff",
	"boundary", "drain", "parked", "park-lost", "retry", "fail", "deadline", "done"}

func (e jobEvent) String() string { return eventNames[e] }

// effects is what a transition asks of the scheduler besides the new state.
type effects struct {
	stop    stopReq // the request standing afterwards
	run     bool    // run an attempt
	park    bool    // cut a pause checkpoint, then apply evParked or evParkLost
	enqueue bool    // put the job on the run queue
	hold    bool    // hold the last good chain as the checkpoint to resume from
	drop    bool    // drop the held checkpoint
	remove  bool    // remove the job's file from the checkpoint store
}

// next is the job lifecycle: where a job in state from, with request stop
// standing, goes on event ev, and what the move entails. It is pure — no
// job, lock, clock or I/O — so a test walks every case. An event that does
// not apply leaves state and request as they are; err is ErrBadTransition
// for an API request the state refuses.
func next(from JobState, stop stopReq, ev jobEvent) (JobState, effects, error) {
	stay := effects{stop: stop}
	refuse := func() (JobState, effects, error) {
		return from, stay, fmt.Errorf("%w: %s a %s job", ErrBadTransition, ev, from)
	}
	end := func(to JobState) (JobState, effects, error) {
		return to, effects{drop: true, remove: to != StateFenced}, nil
	}
	if from.Terminal() {
		if ev == evPause || ev == evResume || ev == evCancel || ev == evResize {
			return refuse()
		}
		return from, stay, nil
	}
	switch ev {
	case evPause:
		switch from {
		case StateRunning:
			return from, effects{stop: max(stop, stopPause)}, nil
		case StatePaused:
			return refuse()
		}
		return StatePaused, effects{}, nil
	case evResume:
		if from != StatePaused {
			return refuse()
		}
		return StateQueued, effects{enqueue: true}, nil
	case evCancel:
		if from == StateRunning {
			return from, effects{stop: max(stop, stopCancel)}, nil
		}
		return end(StateCancelled)
	case evFence:
		if from == StateRunning {
			return from, effects{stop: stopFence}, nil
		}
		return end(StateFenced)
	case evStart:
		if from == StateQueued {
			return StateRunning, effects{run: true}, nil
		}
	case evBackoff:
		if from == StateRetrying {
			return StateQueued, effects{enqueue: true}, nil
		}
	case evDrain:
		if from == StateRetrying {
			return StatePaused, effects{}, nil
		}
	}
	if from != StateRunning || ev < evBoundary {
		return from, stay, nil
	}
	switch stop {
	case stopCancel:
		return end(StateCancelled)
	case stopFence:
		return end(StateFenced)
	}
	switch ev {
	case evBoundary:
		return from, effects{stop: stop, park: stop == stopPause}, nil
	case evDrain:
		return from, effects{stop: stop, park: true}, nil
	case evParked:
		return StatePaused, effects{hold: true}, nil
	case evRetry:
		return StateRetrying, effects{hold: true}, nil
	case evDone:
		return end(StateDone)
	}
	return end(StateFailed) // evParkLost, evFail, evDeadline
}

// settle applies ev to j: next decides, settle carries the decision out.
// It is the only code that assigns j.state, so every transition keeps the
// same books — the stop request, the held checkpoint, the store file, the
// retry count, the job counters, the lifecycle event and the ledger. cause
// is the error behind a failure or retry (otherwise just the event's
// detail). It returns next's verdict, or ErrQueueFull, with the job
// untouched, when the run queue has no room for it.
func (s *Scheduler) settle(j *Job, ev jobEvent, cause error) (JobState, effects, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return s.settleLocked(j, ev, cause)
}

// settleLocked is settle for callers holding j.mu.
func (s *Scheduler) settleLocked(j *Job, ev jobEvent, cause error) (JobState, effects, error) {
	from := j.state
	to, fx, err := next(from, j.stop, ev)
	if err != nil {
		return from, fx, err
	}
	if fx.enqueue {
		// A non-blocking send under j.mu: the worker that takes the job
		// waits on the lock until the transition below is committed.
		select {
		case s.queue <- j:
		default:
			return from, effects{stop: j.stop}, fmt.Errorf("%w (%d jobs)", ErrQueueFull, s.cfg.QueueDepth)
		}
	}
	j.stop = fx.stop
	if to == from {
		return to, fx, nil
	}
	now := time.Now()
	j.state, j.updated = to, now
	if fx.hold {
		j.checkpoint = j.lastGood
	}
	if fx.drop {
		j.checkpoint = nil
	}
	if fx.remove {
		s.removeCheckpointFile(j.ID, j.epoch)
	}
	phase, detail := string(to), ""
	if cause != nil {
		detail = cause.Error()
	}
	switch to {
	case StateRunning:
		phase = ""
		j.err = nil
		if j.started.IsZero() {
			j.started = now
		}
		j.attemptStart = now
	case StateQueued:
		phase = ""
		if from == StatePaused {
			phase = "resumed"
			s.metrics.resumes.Add(1)
		}
	case StatePaused:
		s.metrics.pauses.Add(1)
	case StateRetrying:
		j.err = cause
		j.retries++
		phase, detail = "retry", fmt.Sprintf("attempt %d: %v", j.retries, cause)
		s.metrics.jobRetries.Add(1)
	case StateDone:
		s.metrics.jobsCompleted.Add(1)
		s.metrics.jobDur.Observe(now.Sub(j.started))
	case StateFailed:
		j.err = cause
		s.metrics.jobsFailed.Add(1)
	case StateCancelled:
		s.metrics.jobsCancelled.Add(1)
	case StateFenced:
		j.epoch = max(j.epoch, j.fenceEpoch)
		detail = fmt.Sprintf("epoch %d superseded", j.epoch)
		s.metrics.jobsFenced.Add(1)
	}
	if phase != "" {
		j.emitJobEventLocked(phase, detail)
	}
	if from == StateRunning {
		j.tracer.Emit(obs.Event{Kind: obs.KindJob, Phase: "attempt", DurNS: now.Sub(j.attemptStart).Nanoseconds()})
	}
	if to.Terminal() {
		j.ledger.Close()
	}
	return to, fx, nil
}
