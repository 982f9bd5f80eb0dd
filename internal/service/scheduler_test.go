package service

import (
	"context"
	"testing"
	"time"

	"nestdiff/internal/wrfsim"
)

// testCells is a two-storm population with different lifetimes, so a nest
// deletion forces churn partway through a run.
func testCells() []wrfsim.Cell {
	return []wrfsim.Cell{
		{X: 20, Y: 18, Radius: 5, Peak: 2.5, Life: 2 * 3600},
		{X: 70, Y: 50, Radius: 4, Peak: 2.0, Life: 6 * 3600},
	}
}

// smallJob is a fast cells-scenario job on a modest torus.
func smallJob(steps int) JobConfig {
	return JobConfig{
		Cores:         256,
		Machine:       "torus",
		Strategy:      "diffusion",
		Scenario:      "cells",
		NX:            96,
		NY:            72,
		Cells:         testCells(),
		Steps:         steps,
		Interval:      5,
		AnalysisRanks: 6,
		MaxNests:      4,
	}
}

// waitFor polls a job until cond holds or the deadline passes.
func waitFor(t *testing.T, s *Scheduler, id string, what string, cond func(Snapshot) bool) Snapshot {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if cond(snap) {
			return snap
		}
		if snap.State.Terminal() && what != "terminal" {
			t.Fatalf("job %s reached terminal state %s (error %q) while waiting for %s",
				id, snap.State, snap.Error, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s on job %s", what, id)
	return Snapshot{}
}

func TestSchedulerRunsJobToCompletion(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2})
	defer s.Shutdown(context.Background())

	snap, err := s.Submit(smallJob(40))
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateQueued || snap.TotalSteps != 40 {
		t.Fatalf("submit snapshot = %+v", snap)
	}
	final := waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("job finished %s (error %q), want done", final.State, final.Error)
	}
	if final.Step != 40 {
		t.Fatalf("final step = %d, want 40", final.Step)
	}
	if final.Events != 8 {
		t.Fatalf("adaptation events = %d, want 8 (every 5 of 40 steps)", final.Events)
	}
	if len(final.ActiveNests) == 0 {
		t.Fatal("no nests live after 40 steps of two mature storms")
	}
	if final.LastEvent == nil || final.LastEvent.Step != 40 {
		t.Fatalf("last event = %+v", final.LastEvent)
	}
	if final.ExecTime <= 0 {
		t.Fatal("no cumulative execution time recorded")
	}
	m := s.Metrics()
	if m.Value("nestserved_steps_executed_total") != 40 {
		t.Fatalf("steps executed counter = %d, want 40", m.Value("nestserved_steps_executed_total"))
	}
	if m.Value("nestserved_adaptation_events_total") != 8 {
		t.Fatalf("adaptation events counter = %d, want 8", m.Value("nestserved_adaptation_events_total"))
	}
}

func TestSchedulerRejectsBadConfig(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	bad := smallJob(40)
	bad.Steps = 0
	if _, err := s.Submit(bad); err == nil {
		t.Fatal("zero-step job accepted")
	}
	bad = smallJob(40)
	bad.Strategy = "alchemy"
	if _, err := s.Submit(bad); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	bad = smallJob(40)
	bad.Scenario = "cells"
	bad.Cells = nil
	if _, err := s.Submit(bad); err == nil {
		t.Fatal("cells scenario without cells accepted")
	}
}

func TestSchedulerCancelRunningJob(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	cfg := smallJob(5000)
	cfg.StepDelayMS = 2
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, snap.ID, "running", func(sn Snapshot) bool { return sn.State == StateRunning && sn.Step > 0 })
	if err := s.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateCancelled {
		t.Fatalf("state after cancel = %s", final.State)
	}
	if final.Step >= 5000 {
		t.Fatal("cancelled job ran to completion")
	}
	// Terminal jobs reject further transitions.
	if err := s.Resume(snap.ID); err == nil {
		t.Fatal("resumed a cancelled job")
	}
	if err := s.Pause(snap.ID); err == nil {
		t.Fatal("paused a cancelled job")
	}
}

func TestSchedulerPauseResumeMatchesUninterruptedRun(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	cfg := smallJob(120)
	cfg.StepDelayMS = 2
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pause mid-run, after at least two adaptation events.
	waitFor(t, s, snap.ID, "two events", func(sn Snapshot) bool { return sn.Events >= 2 })
	if err := s.Pause(snap.ID); err != nil {
		t.Fatal(err)
	}
	paused := waitFor(t, s, snap.ID, "paused", func(sn Snapshot) bool { return sn.State == StatePaused })
	if !paused.HasCheckpoint {
		t.Fatal("mid-run pause produced no checkpoint")
	}
	if paused.Step >= cfg.Steps {
		t.Fatal("job completed before the pause landed; raise StepDelayMS")
	}
	if err := s.Resume(snap.ID); err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("job finished %s (error %q)", final.State, final.Error)
	}

	// The paused-and-resumed run must match a direct, uninterrupted
	// Pipeline.Run of the same config exactly.
	direct := cfg
	direct.StepDelayMS = 0
	r, err := newRun(direct)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.pipe.Run(direct.Steps); err != nil {
		t.Fatal(err)
	}
	want := r.pipe.ActiveSet()
	if len(final.ActiveNests) != len(want) {
		t.Fatalf("final nest set has %d nests, direct run %d", len(final.ActiveNests), len(want))
	}
	for i := range want {
		if final.ActiveNests[i] != want[i] {
			t.Fatalf("final nest %d = %+v, direct run %+v", i, final.ActiveNests[i], want[i])
		}
	}
	directEvents := r.pipe.Events()
	events, err := s.JobEvents(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(directEvents) {
		t.Fatalf("scheduled run recorded %d events, direct run %d", len(events), len(directEvents))
	}
	for i := range events {
		if events[i].Step != directEvents[i].Step ||
			events[i].Metrics.RedistTime != directEvents[i].Metrics.RedistTime ||
			events[i].Metrics.ExecTime != directEvents[i].Metrics.ExecTime {
			t.Fatalf("event %d diverged from the direct run:\nscheduled %+v\ndirect    %+v",
				i, events[i].Metrics, directEvents[i].Metrics)
		}
	}
}

func TestSchedulerPauseQueuedJob(t *testing.T) {
	// One worker, occupied by a slow job: the second job stays queued and
	// can be paused in place, then resumed.
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	slow := smallJob(5000)
	slow.StepDelayMS = 2
	blocker, err := s.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, blocker.ID, "running", func(sn Snapshot) bool { return sn.State == StateRunning })

	queued, err := s.Submit(smallJob(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Pause(queued.ID); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Get(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StatePaused || snap.HasCheckpoint {
		t.Fatalf("queued pause snapshot = %+v", snap)
	}
	if err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Resume(queued.ID); err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, queued.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateDone || final.Step != 10 {
		t.Fatalf("resumed queued job finished %+v", final)
	}
}

func TestSchedulerConcurrentJobs(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 4})
	defer s.Shutdown(context.Background())
	var ids []string
	for i := 0; i < 6; i++ {
		snap, err := s.Submit(smallJob(20))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	for _, id := range ids {
		final := waitFor(t, s, id, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
		if final.State != StateDone {
			t.Fatalf("job %s finished %s (error %q)", id, final.State, final.Error)
		}
	}
	if got := s.Metrics().Value("nestserved_steps_executed_total"); got != 6*20 {
		t.Fatalf("steps executed = %d, want %d", got, 6*20)
	}
	if len(s.List()) != 6 {
		t.Fatalf("job list has %d entries", len(s.List()))
	}
}

// TestSchedulerShutdownEndsThrottledWait: a drain or a kill reaches a
// throttled job parked between steps at once, not when its step delay
// runs out — a job whose delay outlasts the drain timeout still parks
// with its checkpoint, and a killed worker stops at the boundary.
func TestSchedulerShutdownEndsThrottledWait(t *testing.T) {
	start := func(t *testing.T) (*Scheduler, string) {
		s := NewScheduler(SchedulerConfig{Workers: 1})
		cfg := smallJob(50)
		cfg.StepDelayMS = 60_000
		snap, err := s.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, s, snap.ID, "step 1", func(sn Snapshot) bool { return sn.State == StateRunning && sn.Step > 0 })
		return s, snap.ID
	}
	t.Run("drain", func(t *testing.T) {
		s, id := start(t)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("drain of a job inside its 60 s step delay: %v", err)
		}
		after, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if after.State != StatePaused || !after.HasCheckpoint || after.Step != 1 {
			t.Fatalf("drained job = %+v, want paused at step 1 with checkpoint", after)
		}
	})
	t.Run("kill", func(t *testing.T) {
		s, _ := start(t)
		s.Kill()
		stopped := make(chan struct{})
		go func() { s.wg.Wait(); close(stopped) }()
		select {
		case <-stopped:
		case <-time.After(5 * time.Second):
			t.Fatal("a killed worker is still waiting out its 60 s step delay")
		}
	})
}

func TestSchedulerShutdownDrainsRunningJobs(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2})
	cfg := smallJob(5000)
	cfg.StepDelayMS = 2
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, snap.ID, "running", func(sn Snapshot) bool { return sn.State == StateRunning && sn.Step > 0 })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	after, err := s.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.State != StatePaused || !after.HasCheckpoint {
		t.Fatalf("drained job = %+v, want paused with checkpoint", after)
	}
	if _, err := s.Submit(smallJob(10)); err == nil {
		t.Fatal("submit accepted after shutdown")
	}
	if err := s.Resume(snap.ID); err == nil {
		t.Fatal("resume accepted after shutdown")
	}
}
