package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestQueueFullSheds429WithRetryAfter: the worker's admission path — a
// full submit queue answers 429 with a Retry-After hint instead of a
// generic error, so fleet controllers and clients can back off instead of
// hammering.
func TestQueueFullSheds429WithRetryAfter(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 1})
	defer s.Kill() // Shutdown would wait out the slow blockers
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	slow := smallJob(5000)
	slow.StepDelayMS = 2
	submit := func() *http.Response {
		body, err := json.Marshal(slow)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// One job occupies the single worker slot, one fills the queue; the
	// next submission must shed. The loop tolerates the race where the
	// first job hasn't been dequeued yet.
	sawShed := false
	for i := 0; i < 8 && !sawShed; i++ {
		resp := submit()
		switch resp.StatusCode {
		case http.StatusCreated:
		case http.StatusTooManyRequests:
			sawShed = true
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Fatal("429 without Retry-After")
			}
			var body map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if body["error"] == "" {
				t.Fatal("429 without a JSON error body")
			}
		default:
			t.Fatalf("submit %d = %d, want 201 or 429", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if !sawShed {
		t.Fatal("1-slot, 1-queue worker never shed a submission")
	}
	if s.Metrics().Value("nestserved_queue_full_rejections_total") == 0 {
		t.Fatal("queue-full rejection not counted")
	}

	// The direct API surfaces the same condition as ErrQueueFull.
	var lastErr error
	for i := 0; i < 8; i++ {
		if _, lastErr = s.Submit(slow); errors.Is(lastErr, ErrQueueFull) {
			break
		}
	}
	if !errors.Is(lastErr, ErrQueueFull) {
		t.Fatalf("direct submit error = %v, want ErrQueueFull", lastErr)
	}
}

// TestSchedulerRecoversCheckpointsAtStartup: a scheduler pointed at a
// checkpoint dir left behind by a dead predecessor re-registers every
// persisted job as paused — resumable exactly where the predecessor last
// checkpointed — and counts (without importing) corrupt envelopes.
func TestSchedulerRecoversCheckpointsAtStartup(t *testing.T) {
	const steps = 60
	cfg := chaosJob(steps)
	cfg.StepDelayMS = 1 // slow enough to die mid-run
	refSnap, refEvents := runFaultFree(t, cfg)

	dir := t.TempDir()
	old := NewScheduler(SchedulerConfig{Workers: 1, CheckpointDir: dir})
	snap, err := old.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, old, snap.ID, "first persisted checkpoint", func(sn Snapshot) bool {
		// Persistence is asynchronous: wait for the file itself, not just
		// the in-memory checkpoint cut.
		_, err := os.Stat(filepath.Join(dir, snap.ID+".ckpt"))
		return sn.Step >= 10 && err == nil
	})
	old.Kill() // hard death: no park, no cleanup — only the disk survives

	// A corrupt envelope sits alongside the good one.
	if err := os.WriteFile(filepath.Join(dir, "garbage.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := NewScheduler(SchedulerConfig{Workers: 1, CheckpointDir: dir})
	defer s.Shutdown(context.Background())
	if got := s.Metrics().Value("nestserved_checkpoints_recovered_total"); got != 1 {
		t.Fatalf("checkpoints recovered = %d, want 1", got)
	}
	if got := s.Metrics().Value("nestserved_checkpoints_corrupt_total"); got != 1 {
		t.Fatalf("corrupt checkpoints = %d, want 1", got)
	}
	if _, err := s.Get("garbage"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt envelope registered a job: %v", err)
	}

	rec, err := s.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StatePaused || !rec.HasCheckpoint {
		t.Fatalf("recovered job = %+v, want paused with a checkpoint", rec)
	}
	if err := s.Resume(snap.ID); err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateDone || final.Step != steps {
		t.Fatalf("recovered run finished %+v", final)
	}
	if !reflect.DeepEqual(final.ActiveNests, refSnap.ActiveNests) {
		t.Fatalf("recovered nest set diverged:\nrecovered  %+v\nfault-free %+v",
			final.ActiveNests, refSnap.ActiveNests)
	}
	events, err := s.JobEvents(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, refEvents) {
		t.Fatalf("recovered trace diverged (%d vs %d events)", len(events), len(refEvents))
	}
}

// TestCheckpointExportImportRoundTrip moves a half-finished job between
// two workers through the HTTP handoff surface: export the envelope from
// A, import it into B, resume on B, and the completed run must match a
// never-migrated one bit for bit.
func TestCheckpointExportImportRoundTrip(t *testing.T) {
	const steps = 60
	cfg := chaosJob(steps)
	cfg.StepDelayMS = 1
	refSnap, refEvents := runFaultFree(t, cfg)

	a := NewScheduler(SchedulerConfig{Workers: 1})
	defer a.Shutdown(context.Background())
	srvA := httptest.NewServer(NewHandler(a))
	defer srvA.Close()
	b := NewScheduler(SchedulerConfig{Workers: 1})
	defer b.Shutdown(context.Background())
	srvB := httptest.NewServer(NewHandler(b))
	defer srvB.Close()

	snap, err := a.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, a, snap.ID, "mid-run", func(sn Snapshot) bool { return sn.Step >= 10 })
	if err := a.Pause(snap.ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, a, snap.ID, "paused", func(sn Snapshot) bool { return sn.State == StatePaused })

	resp, err := http.Get(srvA.URL + "/jobs/" + snap.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	env, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export = %d, %v", resp.StatusCode, err)
	}

	// The envelope is self-describing: config and pipeline state together.
	gotCfg, _, state, err := decodeJobCheckpoint(env)
	if err != nil {
		t.Fatal(err)
	}
	if gotCfg.Steps != steps || len(state) == 0 {
		t.Fatalf("decoded envelope: steps %d, state %d bytes", gotCfg.Steps, len(state))
	}

	iresp, err := http.Post(srvB.URL+"/jobs/"+snap.ID+"/import", "application/octet-stream", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	imported := func() Snapshot {
		defer iresp.Body.Close()
		var sn Snapshot
		if err := json.NewDecoder(iresp.Body).Decode(&sn); err != nil {
			t.Fatal(err)
		}
		return sn
	}()
	if iresp.StatusCode != http.StatusCreated || imported.State != StatePaused {
		t.Fatalf("import = %d, snapshot %+v", iresp.StatusCode, imported)
	}
	if b.Metrics().Value("nestserved_jobs_imported_total") != 1 {
		t.Fatal("import not counted")
	}

	// A second import of the same ID conflicts rather than clobbering.
	dresp, err := http.Post(srvB.URL+"/jobs/"+snap.ID+"/import", "application/octet-stream", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate import = %d, want 409", dresp.StatusCode)
	}

	// A truncated envelope is rejected before it reaches the scheduler.
	tresp, err := http.Post(srvB.URL+"/jobs/other/import", "application/octet-stream", bytes.NewReader(env[:len(env)/2]))
	if err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated import = %d, want 400", tresp.StatusCode)
	}

	rresp, err := http.Post(srvB.URL+"/jobs/"+snap.ID+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("resume after import = %d", rresp.StatusCode)
	}
	final := waitFor(t, b, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateDone || final.Step != steps {
		t.Fatalf("migrated run finished %+v", final)
	}
	if !reflect.DeepEqual(final.ActiveNests, refSnap.ActiveNests) {
		t.Fatalf("migrated nest set diverged:\nmigrated   %+v\nfault-free %+v",
			final.ActiveNests, refSnap.ActiveNests)
	}
	events, err := b.JobEvents(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, refEvents) {
		t.Fatalf("migrated trace diverged (%d vs %d events)", len(events), len(refEvents))
	}
}

// TestSchedulerResumeFromQueueNoDoubleRun covers the stale-queue-entry
// race: pausing a job that is already sitting in the queue channel leaves
// its entry behind, and resuming enqueues it again. The worker must treat
// the stale entry as a no-op — the job runs exactly once, and a second
// resume while queued is rejected as a bad transition.
func TestSchedulerResumeFromQueueNoDoubleRun(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())

	slow := smallJob(5000)
	slow.StepDelayMS = 2
	blocker, err := s.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, blocker.ID, "running", func(sn Snapshot) bool { return sn.State == StateRunning })

	const steps = 10
	queued, err := s.Submit(smallJob(steps))
	if err != nil {
		t.Fatal(err)
	}
	// Each cycle strands one more stale entry in the channel.
	for cycle := 0; cycle < 2; cycle++ {
		if err := s.Pause(queued.ID); err != nil {
			t.Fatalf("pause cycle %d: %v", cycle, err)
		}
		if err := s.Resume(queued.ID); err != nil {
			t.Fatalf("resume cycle %d: %v", cycle, err)
		}
		if err := s.Resume(queued.ID); !errors.Is(err, ErrBadTransition) {
			t.Fatalf("double resume cycle %d: %v, want ErrBadTransition", cycle, err)
		}
	}

	if err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, queued.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateDone || final.Step != steps || final.Retries != 0 {
		t.Fatalf("resumed job finished %+v", final)
	}

	// Let the worker chew through the stale entries; the job must stay
	// done and no further steps may execute.
	doneSteps := s.Metrics().Value("nestserved_steps_executed_total")
	time.Sleep(50 * time.Millisecond)
	again, err := s.Get(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != StateDone || again.Step != steps {
		t.Fatalf("stale queue entry re-ran the job: %+v", again)
	}
	if got := s.Metrics().Value("nestserved_steps_executed_total"); got != doneSteps {
		t.Fatalf("steps kept executing after completion: %d -> %d", doneSteps, got)
	}
	if final.Events != steps/5 {
		t.Fatalf("events = %d, want %d", final.Events, steps/5)
	}
}
