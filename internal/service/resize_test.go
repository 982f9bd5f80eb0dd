package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"

	"nestdiff/internal/faults"
)

// elasticJob is the standard resize workload: a distributed scratch-
// strategy cells job, throttled enough that a resize request lands while
// it is still running, with retries and frequent auto-checkpoints so a
// crash mid-resize rolls back cleanly.
func elasticJob(steps int) JobConfig {
	cfg := smallJob(steps)
	cfg.Cores = 8
	cfg.Strategy = "scratch"
	cfg.Distributed = true
	cfg.StepDelayMS = 2
	cfg.AutoCheckpointSteps = 10
	cfg.MaxRetries = 3
	cfg.RetryBackoffMS = 5
	return cfg
}

// TestSchedulerResizeAppliesAtStepBoundary drives the live-resize path:
// a running job resized to 18 processors keeps running, reports the new
// core count, finishes normally, and the resize metrics fire exactly
// once (the repeat request to the current size is a no-op).
func TestSchedulerResizeAppliesAtStepBoundary(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())

	snap, err := s.Submit(elasticJob(80))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, snap.ID, "mid-run", func(sn Snapshot) bool {
		return sn.State == StateRunning && sn.Step >= 10
	})
	if err := s.ResizeJob(snap.ID, 18); err != nil {
		t.Fatal(err)
	}
	resized := waitFor(t, s, snap.ID, "resize applied", func(sn Snapshot) bool {
		return sn.Cores == 18
	})
	if resized.State.Terminal() {
		t.Fatalf("job already %s when the resize was observed", resized.State)
	}
	// Asking for the size the job already runs at must not queue another
	// redistribution.
	if err := s.ResizeJob(snap.ID, 18); err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("resized job finished %s (error %q), want done", final.State, final.Error)
	}
	if final.Cores != 18 {
		t.Fatalf("final snapshot reports %d cores, want 18", final.Cores)
	}
	if final.Retries != 0 {
		t.Fatalf("clean resize caused %d retries", final.Retries)
	}
	m := s.Metrics()
	if m.Value("nestserved_job_resizes_total") != 1 {
		t.Fatalf("job_resizes_total = %d, want 1", m.Value("nestserved_job_resizes_total"))
	}
	if m.Value("nestserved_job_resize_failures_total") != 0 {
		t.Fatalf("job_resize_failures_total = %d, want 0", m.Value("nestserved_job_resize_failures_total"))
	}
}

// TestSchedulerResizeQueuedAndTerminal pins the state machine's edges: a
// queued job repriced before it ever runs starts at the new size; a
// terminal job cannot be resized; nonsense processor counts are
// rejected.
func TestSchedulerResizeQueuedAndTerminal(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())

	blocker, err := s.Submit(elasticJob(120))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(smallJob(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ResizeJob(queued.ID, 32); err != nil {
		t.Fatal(err)
	}
	if sn, _ := s.Get(queued.ID); sn.Cores != 32 || sn.State != StateQueued {
		t.Fatalf("queued job after reprice: %d cores in state %s, want 32 queued", sn.Cores, sn.State)
	}
	if err := s.ResizeJob(queued.ID, 0); err == nil {
		t.Fatal("zero processor count accepted")
	}
	if err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, queued.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateDone || final.Cores != 32 {
		t.Fatalf("repriced job finished %s with %d cores, want done with 32", final.State, final.Cores)
	}
	if err := s.ResizeJob(queued.ID, 64); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("resize of a done job returned %v, want ErrBadTransition", err)
	}
	if m := s.Metrics(); m.Value("nestserved_job_resizes_total") != 0 {
		t.Fatalf("repricing a queued job counted as %d live resizes", m.Value("nestserved_job_resizes_total"))
	}
}

// TestChaosCrashDuringResizeRecoversAtOldSize is the resize crash drill:
// a fault plan kills the worker inside the resize attempt, after the
// pre-resize checkpoint was taken but before the new grid commits. The
// retry must restore that checkpoint at the OLD size, the consumed
// resize request must not be re-attempted, and the finished run must
// match a fault-free run that was never resized at all.
func TestChaosCrashDuringResizeRecoversAtOldSize(t *testing.T) {
	const steps = 60
	refSnap, refEvents := runFaultFree(t, elasticJob(steps))

	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	cfg := elasticJob(steps)
	cfg.Faults = faults.NewPlan(4).FailResize(1)
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, snap.ID, "mid-run", func(sn Snapshot) bool {
		return sn.State == StateRunning && sn.Step >= 12
	})
	if err := s.ResizeJob(snap.ID, 16); err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("crashed-resize job finished %s (error %q), want done", final.State, final.Error)
	}
	if final.Retries != 1 {
		t.Fatalf("retries = %d, want exactly 1 (one injected resize crash)", final.Retries)
	}
	if final.Cores != 8 {
		t.Fatalf("job finished at %d cores, want the pre-resize 8 (resize must not survive the crash)", final.Cores)
	}
	inj := cfg.Faults.Injections()
	if len(inj) != 1 || inj[0].Kind != faults.KindResizeCrash {
		t.Fatalf("fault plan recorded %+v, want one resize-crash injection", inj)
	}
	m := s.Metrics()
	if m.Value("nestserved_job_resizes_total") != 0 {
		t.Fatalf("job_resizes_total = %d after a crashed resize, want 0", m.Value("nestserved_job_resizes_total"))
	}

	if !reflect.DeepEqual(final.ActiveNests, refSnap.ActiveNests) {
		t.Fatalf("final nest sets diverged:\ncrashed resize %+v\nfault-free     %+v",
			final.ActiveNests, refSnap.ActiveNests)
	}
	events, err := s.JobEvents(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, refEvents) {
		t.Fatalf("event traces diverged after resize-crash recovery: %d events vs %d fault-free",
			len(events), len(refEvents))
	}
}

// TestHTTPResizeEndpoint covers the POST /jobs/{id}/resize wire surface:
// parameter validation, unknown jobs, and a successful resize reflected
// in the job's snapshots.
func TestHTTPResizeEndpoint(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	snap, err := s.Submit(elasticJob(80))
	if err != nil {
		t.Fatal(err)
	}
	if code := httpPost(t, srv.URL+"/jobs/"+snap.ID+"/resize"); code != 400 {
		t.Fatalf("resize without ?procs returned %d, want 400", code)
	}
	if code := httpPost(t, srv.URL+"/jobs/"+snap.ID+"/resize?procs=bogus"); code != 400 {
		t.Fatalf("resize with bad procs returned %d, want 400", code)
	}
	if code := httpPost(t, srv.URL+"/jobs/nope/resize?procs=8"); code != 404 {
		t.Fatalf("resize of unknown job returned %d, want 404", code)
	}
	pollHTTP(t, srv.URL, snap.ID, "mid-run", func(sn Snapshot) bool {
		return sn.State == StateRunning && sn.Step >= 10
	})
	if code := httpPost(t, srv.URL+"/jobs/"+snap.ID+"/resize?procs=18"); code != 200 {
		t.Fatalf("resize returned %d, want 200", code)
	}
	final := pollHTTP(t, srv.URL, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateDone || final.Cores != 18 {
		t.Fatalf("job finished %s with %d cores, want done with 18", final.State, final.Cores)
	}
}
