package service

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"nestdiff/internal/faults"
)

// refusedByAPI is the API contract next must keep: the requests the job
// API refuses with ErrBadTransition, and nothing else.
func refusedByAPI(from JobState, ev jobEvent) bool {
	switch ev {
	case evResume:
		return from != StatePaused
	case evPause:
		return from == StatePaused || from.Terminal()
	case evCancel, evResize:
		return from.Terminal()
	}
	return false
}

// TestLifecycleTable walks every (state, stop request, event) through next
// and checks the lifecycle's invariants, then pins the cases the scheduler's
// races turn on.
func TestLifecycleTable(t *testing.T) {
	for _, from := range States() {
		for stop := stopNone; stop <= stopFence; stop++ {
			for ev := jobEvent(0); ev < numEvents; ev++ {
				to, fx, err := next(from, stop, ev)
				what := fmt.Sprintf("%s with stop %d on %s -> %s %+v", from, stop, ev, to, fx)
				if from.Terminal() && (to != from || fx != (effects{stop: stop})) {
					t.Errorf("%s: a terminal state must absorb every event", what)
				}
				if to == from && fx.stop < stop {
					t.Errorf("%s: the stop request went down", what)
				}
				if to != from && fx.stop != stopNone {
					t.Errorf("%s: a state change must consume the stop request", what)
				}
				if from == StateRunning && ev < evBoundary && to != from {
					t.Errorf("%s: a request moved a running job directly", what)
				}
				if to != from && to.Terminal() && (!fx.drop || fx.remove != (to != StateFenced)) {
					t.Errorf("%s: a terminal target must drop the checkpoint and remove the file unless fenced", what)
				}
				if !to.Terminal() && (fx.drop || fx.remove) {
					t.Errorf("%s: a live job lost its checkpoint or file", what)
				}
				if refused := refusedByAPI(from, ev); (err != nil) != refused {
					t.Errorf("%s: err = %v, want refused = %v", what, err, refused)
				}
				if err != nil && (!errors.Is(err, ErrBadTransition) || to != from || fx.stop != stop) {
					t.Errorf("%s: a refusal must be ErrBadTransition and change nothing (err %v)", what, err)
				}
			}
		}
	}

	drop, remove := effects{drop: true}, effects{drop: true, remove: true}
	for _, c := range []struct {
		from JobState
		stop stopReq
		ev   jobEvent
		to   JobState
		fx   effects
	}{
		// A cancel or fence that arrived during the pause cut wins over it.
		{StateRunning, stopCancel, evParked, StateCancelled, remove},
		{StateRunning, stopFence, evParked, StateFenced, drop},
		{StateRunning, stopCancel, evParkLost, StateCancelled, remove},
		// ... and over every other outcome of the attempt.
		{StateRunning, stopFence, evDone, StateFenced, drop},
		{StateRunning, stopCancel, evRetry, StateCancelled, remove},
		{StateRunning, stopFence, evDeadline, StateFenced, drop},
		{StateRunning, stopCancel, evDrain, StateCancelled, remove},
		// Requests only raise a running job's stop.
		{StateRunning, stopNone, evPause, StateRunning, effects{stop: stopPause}},
		{StateRunning, stopPause, evCancel, StateRunning, effects{stop: stopCancel}},
		{StateRunning, stopFence, evCancel, StateRunning, effects{stop: stopFence}},
		{StateRunning, stopCancel, evPause, StateRunning, effects{stop: stopCancel}},
		// Boundaries, parks and failures.
		{StateRunning, stopNone, evBoundary, StateRunning, effects{}},
		{StateRunning, stopPause, evBoundary, StateRunning, effects{stop: stopPause, park: true}},
		{StateRunning, stopNone, evDrain, StateRunning, effects{park: true}},
		{StateRunning, stopPause, evParked, StatePaused, effects{hold: true}},
		{StateRunning, stopNone, evParkLost, StateFailed, remove},
		{StateRunning, stopPause, evRetry, StateRetrying, effects{hold: true}},
		{StateRunning, stopNone, evFail, StateFailed, remove},
		{StateRunning, stopNone, evDone, StateDone, remove},
		// Off the worker.
		{StateQueued, stopNone, evStart, StateRunning, effects{run: true}},
		{StateRunning, stopNone, evStart, StateRunning, effects{}},
		{StatePaused, stopNone, evResume, StateQueued, effects{enqueue: true}},
		{StateRetrying, stopNone, evBackoff, StateQueued, effects{enqueue: true}},
		{StatePaused, stopNone, evBackoff, StatePaused, effects{}},
		{StateRetrying, stopNone, evDrain, StatePaused, effects{}},
		{StateQueued, stopNone, evPause, StatePaused, effects{}},
		{StatePaused, stopNone, evCancel, StateCancelled, remove},
		{StateRetrying, stopNone, evFence, StateFenced, drop},
	} {
		to, fx, err := next(c.from, c.stop, c.ev)
		if err != nil || to != c.to || fx != c.fx {
			t.Errorf("%s with stop %d on %s = %s %+v, %v; want %s %+v", c.from, c.stop, c.ev, to, fx, err, c.to, c.fx)
		}
	}
}

// TestChaosFailedJobLeavesNoMirror: a job that runs out of retries is as
// terminal as a finished one, so its store mirror goes with it — a restart
// must not bring the failed job back as paused.
func TestChaosFailedJobLeavesNoMirror(t *testing.T) {
	dir := t.TempDir()
	s := NewScheduler(SchedulerConfig{Workers: 1, CheckpointDir: dir})
	cfg := chaosJob(60)
	cfg.MaxRetries = 1
	cfg.AutoCheckpointSteps = 3
	plan := faults.NewPlan(14)
	for step := 5; step <= 60; step += 5 {
		plan.PanicStep(step)
	}
	cfg.Faults = plan
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateFailed {
		t.Fatalf("job finished %s (error %q), want failed after exhausting retries", final.State, final.Error)
	}
	if got := s.Metrics().Value("nestserved_auto_checkpoints_total"); got == 0 {
		t.Fatal("no checkpoint was ever cut; the drill proves nothing")
	}
	shutdownNow(t, s)
	if _, err := os.Stat(filepath.Join(dir, snap.ID+".ckpt")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("failed job left its checkpoint mirror (stat: %v)", err)
	}
	restarted := NewScheduler(SchedulerConfig{Workers: 1, CheckpointDir: dir})
	defer shutdownNow(t, restarted)
	if jobs := restarted.List(); len(jobs) != 0 {
		t.Fatalf("restart recovered %d jobs from a store holding only a failed one: %+v", len(jobs), jobs)
	}
}

// TestChaosRetryFromScratchAfterEvents: a job that fails after recording
// adaptation events but before its first checkpoint retries from scratch,
// and the retry's progress view restarts with it — it finishes identical
// to a run that never crashed.
func TestChaosRetryFromScratchAfterEvents(t *testing.T) {
	const steps = 30
	refSnap, refEvents := runFaultFree(t, chaosJob(steps))

	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	cfg := chaosJob(steps)
	cfg.Faults = faults.NewPlan(15).CrashRank(8, faults.Wildcard) // events at 5; first cut at 10
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateDone || final.Retries != 1 {
		t.Fatalf("job finished %s after %d retries (error %q), want done after 1", final.State, final.Retries, final.Error)
	}
	events, err := s.JobEvents(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, refEvents) || !reflect.DeepEqual(final.ActiveNests, refSnap.ActiveNests) {
		t.Fatalf("from-scratch retry diverged: %d events, fault-free %d", len(events), len(refEvents))
	}
}

// TestChaosCancelDuringParkIsHonoured: a cancel that lands while a pause
// is being cut is accepted, so it must win — the job ends cancelled with
// no mirror left, never paused with a mirror a restart would resume.
func TestChaosCancelDuringParkIsHonoured(t *testing.T) {
	dir := t.TempDir()
	s := NewScheduler(SchedulerConfig{Workers: 1, CheckpointDir: dir})
	defer shutdownNow(t, s)
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		snap, err := s.Submit(smallJob(1_000_000))
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, s, snap.ID, "running", func(sn Snapshot) bool { return sn.State == StateRunning && sn.Step > 0 })
		if err := s.Pause(snap.ID); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(rng.Intn(250)) * time.Microsecond)
		if err := s.Cancel(snap.ID); err != nil {
			t.Fatalf("trial %d: cancel refused: %v", trial, err)
		}
		final := waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State != StateRunning })
		if final.State != StateCancelled {
			t.Fatalf("trial %d: an accepted cancel ended %s", trial, final.State)
		}
		if _, err := os.Stat(filepath.Join(dir, snap.ID+".ckpt")); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("trial %d: cancelled job left its checkpoint mirror (stat: %v)", trial, err)
		}
	}
}

// TestFenceRunningCopyNeverPersistsUnderNewEpoch: a fence raises a running
// copy's epoch only when the copy settles fenced, and nothing it cuts in
// between reaches the store — so the store never holds the superseded
// copy's bytes under the adopter's epoch.
func TestFenceRunningCopyNeverPersistsUnderNewEpoch(t *testing.T) {
	dir := t.TempDir()
	s := NewScheduler(SchedulerConfig{Workers: 1, CheckpointDir: dir, DisableRecovery: true})
	cfg := smallJob(100_000)
	cfg.AutoCheckpointSteps = 1
	const id = "f-1"
	if _, err := s.SubmitWithID(id, 1, cfg); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, id+".ckpt")
	waitFor(t, s, id, "mirror on disk", func(sn Snapshot) bool {
		_, err := os.Stat(path)
		return sn.Step > 1 && err == nil
	})
	if err := s.Fence(id, 2); err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, id, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	shutdownNow(t, s) // the persister drains every op the copy queued
	if final.State != StateFenced || final.Epoch != 2 {
		t.Fatalf("fenced copy settled %s at epoch %d, want fenced at 2", final.State, final.Epoch)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if epoch, err := jobCheckpointEpoch(data); err != nil || epoch != 1 {
		t.Fatalf("store file epoch = %d, %v; the fenced copy wrote under the adopter's epoch", epoch, err)
	}
}
