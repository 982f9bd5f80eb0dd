package service

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"nestdiff/internal/core"
	"nestdiff/internal/faults"
)

// chaosJob is the standard fault-drill workload: a cells-scenario job
// with retries and frequent auto-checkpoints, so an injected failure
// around step 35 rolls back at most 10 steps.
func chaosJob(steps int) JobConfig {
	cfg := smallJob(steps)
	cfg.MaxRetries = 3
	cfg.RetryBackoffMS = 5
	cfg.AutoCheckpointSteps = 10
	return cfg
}

// runFaultFree executes cfg without any fault plan and returns its final
// snapshot and event trace — the ground truth a chaos run must match.
func runFaultFree(t *testing.T, cfg JobConfig) (Snapshot, []core.AdaptationEvent) {
	t.Helper()
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	cfg.Faults = nil
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("fault-free run finished %s (error %q)", final.State, final.Error)
	}
	events, err := s.JobEvents(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	return final, events
}

// noLeakedGoroutines polls until the goroutine count returns to within
// slack of the baseline, dumping all stacks on timeout. Polling (rather
// than a single check) tolerates runtime-internal goroutines that exit
// asynchronously.
func noLeakedGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}

// TestChaosCrashRetryMatchesFaultFreeRun is the core resilience claim: a
// job whose mpi rank crashes mid-run, is rolled back to its last good
// auto-checkpoint and retried, must end in the same final state — same
// nest set, same adaptation-event trace — as a run that never crashed.
func TestChaosCrashRetryMatchesFaultFreeRun(t *testing.T) {
	const steps = 60
	refSnap, refEvents := runFaultFree(t, chaosJob(steps))

	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	cfg := chaosJob(steps)
	// Crash any rank at step 35: past three auto-checkpoints (10, 20, 30),
	// so the retry resumes from step 30 and re-executes five steps.
	cfg.Faults = faults.NewPlan(1).CrashRank(35, faults.Wildcard)
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("chaos run finished %s (error %q), want done", final.State, final.Error)
	}
	if final.Retries != 1 {
		t.Fatalf("retries = %d, want exactly 1 (one injected crash)", final.Retries)
	}
	if got := s.Metrics().Value("nestserved_job_retries_total"); got != 1 {
		t.Fatalf("job_retries counter = %d, want 1", got)
	}
	if n := len(cfg.Faults.Injections()); n != 1 {
		t.Fatalf("plan recorded %d injections, want 1", n)
	}

	if !reflect.DeepEqual(final.ActiveNests, refSnap.ActiveNests) {
		t.Fatalf("final nest sets diverged:\nchaos      %+v\nfault-free %+v",
			final.ActiveNests, refSnap.ActiveNests)
	}
	events, err := s.JobEvents(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, refEvents) {
		t.Fatalf("event traces diverged: chaos %d events, fault-free %d events\nchaos      %+v\nfault-free %+v",
			len(events), len(refEvents), events, refEvents)
	}
	if final.ExecTime != refSnap.ExecTime || final.RedistTime != refSnap.RedistTime {
		t.Fatalf("cumulative costs diverged: exec %g vs %g, redist %g vs %g",
			final.ExecTime, refSnap.ExecTime, final.RedistTime, refSnap.RedistTime)
	}
}

// monsoonChaosJob is chaosJob on the default, scripted scenario: storms are
// born on the monsoon schedule throughout the run (at steps 5, 29, 32, 40,
// … for the default seed), and cuts every 5 steps make most retries restore
// through a delta replay that crosses one of them.
func monsoonChaosJob(steps int) JobConfig {
	cfg := chaosJob(steps)
	cfg.Scenario = "monsoon"
	cfg.NX, cfg.NY, cfg.Cells = 0, 0, nil
	cfg.AutoCheckpointSteps = 5
	return cfg
}

// TestChaosMonsoonCrashRetrySweep is the crash-retry claim on the default
// scenario, swept over crash steps: wherever the crash lands, the retry
// restores a base plus delta replay that must see the scheduled storms,
// and the job finishes after exactly one retry, identical to a run that
// never crashed.
func TestChaosMonsoonCrashRetrySweep(t *testing.T) {
	const steps = 240
	refSnap, refEvents := runFaultFree(t, monsoonChaosJob(steps))

	crashes := []int{23, 37, 52, 68, 97, 113, 148, 199}
	s := NewScheduler(SchedulerConfig{Workers: 2})
	defer s.Shutdown(context.Background())
	ids := make([]string, len(crashes))
	for i, at := range crashes {
		cfg := monsoonChaosJob(steps)
		cfg.Faults = faults.NewPlan(int64(at)).CrashRank(at, faults.Wildcard)
		snap, err := s.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = snap.ID
	}
	for i, id := range ids {
		what := fmt.Sprintf("crash at step %d", crashes[i])
		final := waitFor(t, s, id, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
		if final.State != StateDone || final.Retries != 1 {
			t.Fatalf("%s: finished %s after %d retries (error %q), want done after 1", what, final.State, final.Retries, final.Error)
		}
		if !reflect.DeepEqual(final.ActiveNests, refSnap.ActiveNests) {
			t.Fatalf("%s: final nest sets diverged:\nchaos      %+v\nfault-free %+v", what, final.ActiveNests, refSnap.ActiveNests)
		}
		events, err := s.JobEvents(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(events, refEvents) {
			t.Fatalf("%s: event traces diverged: %d events, fault-free %d", what, len(events), len(refEvents))
		}
		if final.ExecTime != refSnap.ExecTime || final.RedistTime != refSnap.RedistTime {
			t.Fatalf("%s: cumulative costs diverged: exec %g vs %g, redist %g vs %g",
				what, final.ExecTime, refSnap.ExecTime, final.RedistTime, refSnap.RedistTime)
		}
	}
}

// TestChaosCrashBeforeFirstCheckpointRestartsFromScratch: with no good
// checkpoint yet, the retry re-runs the job from the start — and still
// converges to the fault-free trace.
func TestChaosCrashBeforeFirstCheckpointRestartsFromScratch(t *testing.T) {
	const steps = 30
	refSnap, refEvents := runFaultFree(t, chaosJob(steps))

	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	cfg := chaosJob(steps)
	cfg.Faults = faults.NewPlan(2).CrashRank(5, faults.Wildcard)
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("chaos run finished %s (error %q), want done", final.State, final.Error)
	}
	events, err := s.JobEvents(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, refEvents) {
		t.Fatalf("event traces diverged after from-scratch retry")
	}
	if !reflect.DeepEqual(final.ActiveNests, refSnap.ActiveNests) {
		t.Fatalf("final nest sets diverged after from-scratch retry")
	}
}

// TestChaosWorkerPanicRecovered: a panic inside a job's step (here
// injected directly on the worker goroutine) must not kill the worker.
// The job fails with the captured stack and the pool keeps serving.
func TestChaosWorkerPanicRecovered(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())

	cfg := smallJob(30) // MaxRetries 0: first failure is terminal
	cfg.Faults = faults.NewPlan(3).PanicStep(10)
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateFailed {
		t.Fatalf("panicking job finished %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "panicked") || !strings.Contains(final.Error, "goroutine") {
		t.Fatalf("failure error lacks panic + stack trace: %q", final.Error)
	}
	if got := s.Metrics().Value("nestserved_worker_panics_total"); got != 1 {
		t.Fatalf("worker_panics counter = %d, want 1", got)
	}

	// The single worker survived: a healthy job still completes.
	snap2, err := s.Submit(smallJob(10))
	if err != nil {
		t.Fatal(err)
	}
	final2 := waitFor(t, s, snap2.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final2.State != StateDone {
		t.Fatalf("job after panic finished %s (error %q), want done", final2.State, final2.Error)
	}
}

// TestChaosPanicIsRetriedLikeAnyFailure: with retries configured, a
// recovered panic goes through the same retry machinery as a step error.
func TestChaosPanicIsRetriedLikeAnyFailure(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())

	cfg := chaosJob(30)
	cfg.Faults = faults.NewPlan(4).PanicStep(15)
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("retried panic finished %s (error %q), want done", final.State, final.Error)
	}
	if final.Retries != 1 {
		t.Fatalf("retries = %d, want 1", final.Retries)
	}
	if got := s.Metrics().Value("nestserved_worker_panics_total"); got != 1 {
		t.Fatalf("worker_panics counter = %d, want 1", got)
	}
}

// TestChaosCheckpointWriteFailureKeepsLastGood: an injected I/O error in
// an auto-checkpoint write is absorbed — the previous good checkpoint
// stays authoritative, the failure is counted, and the job completes.
func TestChaosCheckpointWriteFailureKeepsLastGood(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())

	cfg := chaosJob(45)                                  // auto-checkpoints at steps 10, 20, 30, 40
	cfg.Faults = faults.NewPlan(5).FailCheckpoint(2, 64) // tear the step-20 write
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("job finished %s (error %q), want done", final.State, final.Error)
	}
	m := s.Metrics()
	if got := m.Value("nestserved_checkpoint_failures_total"); got != 1 {
		t.Fatalf("checkpoint_failures counter = %d, want 1", got)
	}
	if got := m.Value("nestserved_auto_checkpoints_total"); got != 3 {
		t.Fatalf("auto_checkpoints counter = %d, want 3 (one of four writes torn)", got)
	}
}

// TestChaosDeadlineIsTerminal: a job over its deadline fails and is NOT
// retried, even with retry budget left.
func TestChaosDeadlineIsTerminal(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())

	cfg := chaosJob(10_000)
	cfg.StepDelayMS = 5
	cfg.DeadlineMS = 40
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateFailed {
		t.Fatalf("overdue job finished %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "deadline exceeded") {
		t.Fatalf("failure error %q does not mention the deadline", final.Error)
	}
	if final.Retries != 0 {
		t.Fatalf("deadline failure consumed %d retries, want 0", final.Retries)
	}
}

// TestChaosRetriesExhausted: a fault plan that panics on every step runs
// the job out of retries; the terminal state is failed with the last
// error, and the retry counters agree.
func TestChaosRetriesExhausted(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())

	cfg := chaosJob(30)
	cfg.MaxRetries = 2
	plan := faults.NewPlan(6)
	// One panic per attempt: the rule re-arms at a later step each time
	// because each attempt replays past the previous panic point.
	for step := 5; step <= 30; step += 5 {
		plan.PanicStep(step)
	}
	cfg.Faults = plan
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateFailed {
		t.Fatalf("job finished %s, want failed after exhausting retries", final.State)
	}
	if final.Retries != 2 {
		t.Fatalf("retries = %d, want 2", final.Retries)
	}
	if got := s.Metrics().Value("nestserved_jobs_failed_total"); got != 1 {
		t.Fatalf("jobs_failed counter = %d, want 1", got)
	}
}

// TestChaosFleetReachesTerminalStatesWithoutLeaks is the suite's
// integration drill: a mixed fleet — healthy, crashing-then-retried,
// panicking without retries, cancelled mid-run, over-deadline — must all
// reach a terminal state, and the drained scheduler must leave no
// goroutines behind.
func TestChaosFleetReachesTerminalStatesWithoutLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := NewScheduler(SchedulerConfig{Workers: 3})

	healthy := smallJob(20)

	crashing := chaosJob(40)
	crashing.Faults = faults.NewPlan(10).CrashRank(15, faults.Wildcard)

	panicking := smallJob(20)
	panicking.Faults = faults.NewPlan(11).PanicStep(5)

	cancelled := smallJob(10_000)
	cancelled.StepDelayMS = 1

	overdue := smallJob(10_000)
	overdue.StepDelayMS = 5
	overdue.DeadlineMS = 40

	ids := make([]string, 0, 5)
	for _, cfg := range []JobConfig{healthy, crashing, panicking, cancelled, overdue} {
		snap, err := s.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	// Cancel the long-running job once it is actually executing.
	waitFor(t, s, ids[3], "running", func(sn Snapshot) bool { return sn.State == StateRunning })
	if err := s.Cancel(ids[3]); err != nil {
		t.Fatal(err)
	}

	want := []JobState{StateDone, StateDone, StateFailed, StateCancelled, StateFailed}
	for i, id := range ids {
		final := waitFor(t, s, id, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
		if final.State != want[i] {
			t.Fatalf("job %s finished %s (error %q), want %s", id, final.State, final.Error, want[i])
		}
	}
	counts := s.CountsByState()
	for _, st := range []JobState{StateQueued, StateRunning, StateRetrying, StatePaused} {
		if counts[st] != 0 {
			t.Fatalf("%d jobs stuck in %s after the fleet drained: %v", counts[st], st, counts)
		}
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	noLeakedGoroutines(t, baseline)
}

// TestChaosShutdownParksRetryingJob: a drain that arrives while a job is
// waiting out its retry backoff converts it to paused (checkpoint
// intact) instead of abandoning the timer goroutine.
func TestChaosShutdownParksRetryingJob(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := NewScheduler(SchedulerConfig{Workers: 1})

	cfg := chaosJob(40)
	cfg.RetryBackoffMS = 60_000 // park in retrying long enough to observe
	cfg.Faults = faults.NewPlan(12).CrashRank(15, faults.Wildcard)
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, snap.ID, "retrying", func(sn Snapshot) bool { return sn.State == StateRetrying })

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown hung on the retry backoff timer")
	}
	got, err := s.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StatePaused {
		t.Fatalf("retrying job drained to %s, want paused", got.State)
	}
	if !got.HasCheckpoint {
		t.Fatal("parked job lost its retry checkpoint")
	}
	noLeakedGoroutines(t, baseline)
}

// TestSchedulerStartShutdownNoGoroutineLeaks: repeated scheduler
// lifecycles — including one with an active cancelled job — return the
// process to its baseline goroutine count.
func TestSchedulerStartShutdownNoGoroutineLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		s := NewScheduler(SchedulerConfig{Workers: 4})
		cfg := smallJob(10_000)
		cfg.StepDelayMS = 1
		snap, err := s.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, s, snap.ID, "running", func(sn Snapshot) bool { return sn.State == StateRunning })
		if err := s.Cancel(snap.ID); err != nil {
			t.Fatal(err)
		}
		waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	noLeakedGoroutines(t, baseline)
}

// TestChaosPersistedCheckpointSurvivesRetry: with a CheckpointDir, the
// on-disk mirror tracks the job across crash and retry, and is removed
// once the job completes.
func TestChaosPersistedCheckpointSurvivesRetry(t *testing.T) {
	dir := t.TempDir()
	s := NewScheduler(SchedulerConfig{Workers: 1, CheckpointDir: dir})
	defer s.Shutdown(context.Background())

	cfg := chaosJob(40)
	cfg.Faults = faults.NewPlan(13).CrashRank(25, faults.Wildcard)
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The mirror must exist while the job is live past its first
	// auto-checkpoint.
	path := fmt.Sprintf("%s/%s.ckpt", dir, snap.ID)
	waitFor(t, s, snap.ID, "first checkpoint", func(sn Snapshot) bool { return sn.Step >= 10 })
	waitFor(t, s, snap.ID, "mirror on disk", func(sn Snapshot) bool {
		_, err := os.Stat(path)
		return err == nil || sn.State.Terminal()
	})
	final := waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("job finished %s (error %q), want done", final.State, final.Error)
	}
	if final.Retries != 1 {
		t.Fatalf("retries = %d, want 1", final.Retries)
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("terminal job left its checkpoint mirror on disk")
	}
}
