package service

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Epoch fencing from the worker's side: the checkpoint envelope carries
// the placement epoch, Fence kills only copies that are genuinely
// superseded, the shared store arbitrates writers, and the fleet agent
// executes fence commands and survives controller restarts.

func TestJobCheckpointEnvelopeEpochRoundTrip(t *testing.T) {
	cfg := smallJob(10).withDefaults()

	env, err := encodeJobCheckpoint(cfg, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if epoch, err := jobCheckpointEpoch(env); err != nil || epoch != 7 {
		t.Fatalf("jobCheckpointEpoch = %d, %v; want 7, nil", epoch, err)
	}
	gotCfg, epoch, state, err := decodeJobCheckpoint(env)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 7 || len(state) != 0 {
		t.Fatalf("decoded epoch %d, %d state bytes; want 7, 0", epoch, len(state))
	}
	if gotCfg.Steps != cfg.Steps || gotCfg.NX != cfg.NX || gotCfg.Strategy != cfg.Strategy {
		t.Fatalf("decoded config %+v does not match input", gotCfg)
	}

	// Corruption in the config region must fail the CRC, not decode.
	bad := append([]byte(nil), env...)
	bad[jobCkptHeaderLen+2] ^= 0xff
	if _, _, _, err := decodeJobCheckpoint(bad); err == nil {
		t.Fatal("corrupted envelope decoded cleanly")
	}
	if _, err := jobCheckpointEpoch(env[:8]); err == nil {
		t.Fatal("truncated header yielded an epoch")
	}
}

func TestFenceRequiresStrictlyHigherEpoch(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())

	// One slow job pins the only worker slot so the fence target stays
	// queued, where Fence acts immediately.
	blocker := smallJob(2000)
	blocker.StepDelayMS = 2
	bsnap, err := s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, bsnap.ID, "running", func(sn Snapshot) bool { return sn.State == StateRunning })

	const id = "fence-tgt"
	if _, err := s.SubmitWithID(id, 3, smallJob(20)); err != nil {
		t.Fatal(err)
	}

	if err := s.Fence("no-such-job", 9); err == nil {
		t.Fatal("fencing an unknown job succeeded")
	}
	// Equal and lower epochs are stale views — a heartbeat racing the
	// adoption that created this copy — and must not kill it.
	for _, epoch := range []int64{3, 2} {
		if err := s.Fence(id, epoch); err != nil {
			t.Fatal(err)
		}
		if snap, _ := s.Get(id); snap.State != StateQueued {
			t.Fatalf("fence at epoch %d killed the rightful copy (state %s)", epoch, snap.State)
		}
	}
	if got := s.Metrics().Value("nestserved_jobs_fenced_total"); got != 0 {
		t.Fatalf("JobsFenced = %d after stale fences, want 0", got)
	}

	// A strictly higher epoch kills the queued copy at once.
	if err := s.Fence(id, 4); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateFenced || snap.Epoch != 4 {
		t.Fatalf("after fence: state %s epoch %d, want fenced at 4", snap.State, snap.Epoch)
	}
	if got := s.Metrics().Value("nestserved_jobs_fenced_total"); got != 1 {
		t.Fatalf("JobsFenced = %d, want 1", got)
	}
	// The fenced copy must vanish from heartbeat reports: it no longer
	// represents the job to the control plane.
	for _, r := range s.EpochReport() {
		if r.ID == id {
			t.Fatalf("fenced job still in epoch report: %+v", r)
		}
	}

	// Fencing a terminal copy is a no-op, whatever the epoch.
	if err := s.Cancel(bsnap.ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, bsnap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if err := s.Fence(bsnap.ID, 99); err != nil {
		t.Fatal(err)
	}
	if snap, _ := s.Get(bsnap.ID); snap.State != StateCancelled {
		t.Fatalf("fence rewrote terminal state to %s", snap.State)
	}
}

func TestFenceRunningJobStopsAtStepBoundary(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())

	cfg := smallJob(2000)
	cfg.StepDelayMS = 2
	const id = "fence-run"
	if _, err := s.SubmitWithID(id, 1, cfg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, id, "running", func(sn Snapshot) bool { return sn.State == StateRunning })

	if err := s.Fence(id, 2); err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, id, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateFenced {
		t.Fatalf("running job fenced into %s, want fenced", final.State)
	}
	if final.Step >= 2000 {
		t.Fatalf("job ran to completion (step %d) instead of fencing mid-run", final.Step)
	}
	if got := s.Metrics().Value("nestserved_jobs_fenced_total"); got != 1 {
		t.Fatalf("JobsFenced = %d, want 1", got)
	}
}

func TestImportReplacesTerminalCopyButNotLive(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2})
	defer s.Shutdown(context.Background())

	// A job that migrated away and was fenced here can migrate back: the
	// terminal copy no longer owns the ID.
	const id = "roundtrip"
	if _, err := s.SubmitWithID(id, 1, smallJob(10)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, id, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	snap, err := s.Import(id, 2, smallJob(10), nil)
	if err != nil {
		t.Fatalf("import over terminal copy: %v", err)
	}
	if snap.State != StatePaused || snap.Epoch != 2 {
		t.Fatalf("imported snapshot state %s epoch %d, want paused at 2", snap.State, snap.Epoch)
	}
	if err := s.Resume(id); err != nil {
		t.Fatal(err)
	}
	if final := waitFor(t, s, id, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() }); final.State != StateDone {
		t.Fatalf("re-imported job finished %s, want done", final.State)
	}

	// A live copy still conflicts.
	live := smallJob(2000)
	live.StepDelayMS = 2
	if _, err := s.SubmitWithID("live-1", 1, live); err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, "live-1", "running", func(sn Snapshot) bool { return sn.State == StateRunning })
	if _, err := s.Import("live-1", 2, smallJob(10), nil); !errors.Is(err, ErrJobExists) {
		t.Fatalf("import over live copy: %v, want ErrJobExists", err)
	}
	s.Cancel("live-1")
}

func TestPersistCheckpointSelfFencesAgainstHigherStoreEpoch(t *testing.T) {
	dir := t.TempDir()
	cfg := smallJob(200)
	cfg.StepDelayMS = 1
	cfg.AutoCheckpointSteps = 5
	const id = "store-arbiter"

	// The shared store already carries this job at epoch 5 — the adopter's
	// checkpoint. A partitioned previous owner running at epoch 1 must
	// refuse to overwrite it and kill itself instead.
	env, err := encodeJobCheckpoint(cfg, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, id+".ckpt")
	if err := os.WriteFile(path, env, 0o644); err != nil {
		t.Fatal(err)
	}

	s := NewScheduler(SchedulerConfig{Workers: 1, CheckpointDir: dir, DisableRecovery: true})
	defer s.Shutdown(context.Background())
	if _, err := s.SubmitWithID(id, 1, cfg); err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, id, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateFenced {
		t.Fatalf("stale owner finished %s, want fenced by the store", final.State)
	}
	if got := s.Metrics().Value("nestserved_checkpoints_fenced_total"); got < 1 {
		t.Fatalf("CheckpointsFenced = %d, want >= 1", got)
	}
	// The adopter's file survives untouched at its epoch.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if epoch, err := jobCheckpointEpoch(data); err != nil || epoch != 5 {
		t.Fatalf("store file epoch = %d, %v after self-fence; want 5, nil", epoch, err)
	}
}

func TestAgentBackoffDoublesWithJitterUpToCap(t *testing.T) {
	interval := 100 * time.Millisecond
	a := &Agent{
		cfg:    AgentConfig{HeartbeatInterval: interval},
		rng:    rand.New(rand.NewSource(1)),
		maxOff: 800 * time.Millisecond,
	}
	for _, tc := range []struct {
		fails int
		base  time.Duration
	}{
		{0, 100 * time.Millisecond},
		{1, 200 * time.Millisecond},
		{2, 400 * time.Millisecond},
		{3, 800 * time.Millisecond},  // hits the cap exactly
		{10, 800 * time.Millisecond}, // far past the cap: still the cap
	} {
		a.fails = tc.fails
		lo := time.Duration(float64(tc.base) * 0.75)
		hi := time.Duration(float64(tc.base) * 1.25)
		for i := 0; i < 50; i++ {
			if d := a.nextWait(); d < lo || d > hi {
				t.Fatalf("fails=%d draw %d: nextWait = %v, want within [%v, %v]",
					tc.fails, i, d, lo, hi)
			}
		}
	}
}

// TestAgentExecutesFencesAndReregistersOnNewInstance drives a real agent
// against a scripted controller: the heartbeat reply's fence list must
// kill the local copy, and an instance-ID change (controller restart)
// must trigger a fresh registration.
func TestAgentExecutesFencesAndReregistersOnNewInstance(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())

	cfg := smallJob(2000)
	cfg.StepDelayMS = 2
	const id = "ag-1"
	if _, err := s.SubmitWithID(id, 1, cfg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, id, "running", func(sn Snapshot) bool { return sn.State == StateRunning })

	var regs, beats atomic.Int64
	var mu sync.Mutex
	instance := "ctl-A"
	var fenced []JobEpochReport
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/register", func(w http.ResponseWriter, r *http.Request) {
		regs.Add(1)
		mu.Lock()
		inst := instance
		mu.Unlock()
		json.NewEncoder(w).Encode(map[string]string{"status": "registered", "instance": inst})
	})
	mux.HandleFunc("POST /fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reply := beatReply{Status: "ok", Instance: instance, Fenced: fenced}
		mu.Unlock()
		json.NewEncoder(w).Encode(reply)
		beats.Add(1)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	a, err := StartAgent(AgentConfig{
		ControllerURL:     srv.URL,
		WorkerID:          "w-agent",
		AdvertiseURL:      "http://worker.invalid",
		HeartbeatInterval: 10 * time.Millisecond,
		Sched:             s,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	if regs.Load() < 1 {
		t.Fatal("agent did not register at startup")
	}
	// The agent must have observed instance ctl-A at least once before the
	// "restart", or the flip is not a change from its point of view.
	deadline := time.Now().Add(10 * time.Second)
	for beats.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("agent never heartbeat the scripted controller")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The controller "restarts": new instance ID, and its placement table
	// says this worker's copy of ag-1 is stale under epoch 2.
	mu.Lock()
	instance = "ctl-B"
	fenced = []JobEpochReport{{ID: id, Epoch: 2}}
	mu.Unlock()

	final := waitFor(t, s, id, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateFenced {
		t.Fatalf("heartbeat fence left the job %s, want fenced", final.State)
	}
	deadline = time.Now().Add(10 * time.Second)
	for regs.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("agent never re-registered after instance change (%d registrations)", regs.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
