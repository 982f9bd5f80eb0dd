package service

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nestdiff/internal/faults"
)

// TestChaosRetryFromDeltaChainMatchesFaultFree is the delta-checkpoint
// variant of the core resilience claim: with a long delta chain (one full
// base, then replay deltas only), a crash-retried job must still end
// bit-identical to a fault-free run. The retry restores from the in-memory
// chain, which means replaying the delta's steps from the base.
func TestChaosRetryFromDeltaChainMatchesFaultFree(t *testing.T) {
	const steps = 60
	cfg := chaosJob(steps)
	cfg.AutoCheckpointSteps = 5
	cfg.CkptDeltaMax = 100 // never re-base: the crash always lands on a delta tail
	refSnap, refEvents := runFaultFree(t, cfg)

	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	cfg.Faults = faults.NewPlan(1).CrashRank(37, faults.Wildcard)
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := waitFor(t, s, snap.ID, "terminal", func(sn Snapshot) bool { return sn.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("chaos run finished %s (error %q), want done", final.State, final.Error)
	}
	if final.Retries != 1 {
		t.Fatalf("retries = %d, want exactly 1", final.Retries)
	}
	if got := s.Metrics().Value("nestserved_delta_checkpoints_total"); got < 5 {
		t.Fatalf("delta checkpoints = %d, want a real chain (>= 5)", got)
	}
	if got := s.Metrics().Value("nestserved_full_checkpoints_total"); got < 1 {
		t.Fatalf("full checkpoints = %d, want at least the base (and the re-base after retry)", got)
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
		t.Fatalf("event traces diverged: chaos %d events, fault-free %d events",
			len(events), len(refEvents))
	}
}

// TestTornFinalDeltaDrill is the golden durability drill for the delta
// path: a job checkpoints one full base plus appended deltas, the worker
// dies, and the final delta is torn mid-record on disk. A new scheduler
// must count the truncation (not reject the file), recover the job from
// the longest valid prefix, and the resumed run must finish bit-identical
// to a fault-free run.
func TestTornFinalDeltaDrill(t *testing.T) {
	tornFinalDeltaDrill(t, chaosJob(80))
}

// TestTornFinalDeltaDrillMonsoon is the torn-tail drill on the default,
// scripted scenario. The base is cut at step 5 and a storm is scheduled
// at step 5, so the resumed run's replay to the first intact delta (step
// 10 or later) must inject it.
func TestTornFinalDeltaDrillMonsoon(t *testing.T) {
	cfg := monsoonChaosJob(80)
	sched, _, _, err := buildSchedule(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) == 0 || sched[0].AtStep != 5 {
		t.Fatalf("monsoon schedule opens %+v; the drill needs a storm at the base step 5", sched[:min(1, len(sched))])
	}
	tornFinalDeltaDrill(t, cfg)
}

func tornFinalDeltaDrill(t *testing.T, cfg JobConfig) {
	steps := cfg.Steps
	cfg.StepDelayMS = 1 // slow enough to die mid-run
	cfg.AutoCheckpointSteps = 5
	cfg.CkptDeltaMax = 100 // only the first cut is full: the file tail is always a delta
	refSnap, refEvents := runFaultFree(t, cfg)

	dir := t.TempDir()
	old := NewScheduler(SchedulerConfig{Workers: 1, CheckpointDir: dir})
	snap, err := old.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snap.ID+".ckpt")
	waitFor(t, old, snap.ID, "two persisted delta appends", func(sn Snapshot) bool {
		return old.Metrics().Value("nestserved_checkpoint_appends_total") >= 2
	})
	old.Kill() // hard death: only the disk survives

	// Tear the final delta blob: chop a few bytes off the appended tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	s := NewScheduler(SchedulerConfig{Workers: 1, CheckpointDir: dir})
	defer s.Shutdown(context.Background())
	if got := s.Metrics().Value("nestserved_checkpoints_recovered_total"); got != 1 {
		t.Fatalf("checkpoints recovered = %d, want 1", got)
	}
	if got := s.Metrics().Value("nestserved_checkpoints_truncated_total"); got != 1 {
		t.Fatalf("checkpoints truncated = %d, want 1 (the torn delta tail)", got)
	}
	if got := s.Metrics().Value("nestserved_checkpoints_corrupt_total"); got != 0 {
		t.Fatalf("checkpoints corrupt = %d, want 0 (a torn tail is not a corrupt file)", got)
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

// TestDeltaAppendsGrowTheFileInPlace pins the write-amplification win:
// once the base is on disk, each auto-checkpoint appends a few hundred
// bytes instead of rewriting the multi-hundred-KB file.
func TestDeltaAppendsGrowTheFileInPlace(t *testing.T) {
	const steps = 400 // long enough that the job is still running while we measure
	cfg := chaosJob(steps)
	cfg.StepDelayMS = 1
	cfg.AutoCheckpointSteps = 5
	cfg.CkptDeltaMax = 100

	dir := t.TempDir()
	s := NewScheduler(SchedulerConfig{Workers: 1, CheckpointDir: dir})
	defer s.Shutdown(context.Background())
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snap.ID+".ckpt")
	waitFor(t, s, snap.ID, "base on disk", func(sn Snapshot) bool {
		_, err := os.Stat(path)
		return err == nil
	})
	base, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	appends0 := s.Metrics().Value("nestserved_checkpoint_appends_total")
	waitFor(t, s, snap.ID, "delta appends", func(sn Snapshot) bool {
		return s.Metrics().Value("nestserved_checkpoint_appends_total") >= appends0+3
	})
	appends := s.Metrics().Value("nestserved_checkpoint_appends_total") - appends0
	grown, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	growth := grown.Size() - base.Size()
	if growth <= 0 || growth >= base.Size() {
		t.Fatalf("file grew by %d bytes over %d appends on a %d-byte base — appends should be tiny",
			growth, appends, base.Size())
	}
	// Another append may land between reading the counter and the stat, so
	// the bound is generous; a thin replay delta is ~100 bytes.
	if perAppend := growth / appends; perAppend > 4096 {
		t.Fatalf("average append is %d bytes, want a thin replay delta (<= 4096)", perAppend)
	}
}
