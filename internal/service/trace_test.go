package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nestdiff/internal/obs"
)

// tracedJob is smallJob with tracing on.
func tracedJob(steps, buffer int) JobConfig {
	cfg := smallJob(steps)
	cfg.Trace = true
	cfg.TraceBuffer = buffer
	return cfg
}

func shutdownNow(t *testing.T, s *Scheduler) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestTraceEndpointUnknownJob(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer shutdownNow(t, s)
	h := NewHandler(s)
	for _, path := range []string{"/jobs/nope/trace", "/jobs/nope/timeline"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, rec.Code)
		}
	}
}

func TestTraceDisabledJobIsEmpty(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer shutdownNow(t, s)
	snap, err := s.Submit(smallJob(3))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, snap.ID, "done", func(sn Snapshot) bool { return sn.State == StateDone })

	rec := httptest.NewRecorder()
	NewHandler(s).ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+snap.ID+"/trace", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET trace = %d, want 200", rec.Code)
	}
	var tr Trace
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Enabled || len(tr.Events) != 0 {
		t.Fatalf("untraced job returned enabled=%v with %d events, want disabled and empty", tr.Enabled, len(tr.Events))
	}
	tl, err := s.JobTimeline(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Enabled || len(tl.Phases) != 0 {
		t.Fatalf("untraced timeline enabled=%v phases=%d, want disabled and empty", tl.Enabled, len(tl.Phases))
	}
}

func TestTraceBoundedBufferTruncates(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer shutdownNow(t, s)
	snap, err := s.Submit(tracedJob(30, 8))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, snap.ID, "done", func(sn Snapshot) bool { return sn.State == StateDone })

	tr, err := s.JobTrace(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Enabled {
		t.Fatal("traced job reported disabled")
	}
	if len(tr.Events) != 8 {
		t.Fatalf("ring kept %d events, want exactly the buffer size 8", len(tr.Events))
	}
	if tr.Dropped <= 0 {
		t.Fatalf("dropped = %d, want > 0 for a 30-step job in an 8-event ring", tr.Dropped)
	}
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Seq != tr.Events[i-1].Seq+1 {
			t.Fatalf("event seqs not contiguous: %d then %d", tr.Events[i-1].Seq, tr.Events[i].Seq)
		}
	}
	// The streaming aggregates must survive ring eviction: far more steps
	// were timed than the ring retains.
	tl, err := s.JobTimeline(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tl.StepLatency == nil || tl.StepLatency.Count != 30 {
		t.Fatalf("step-latency aggregate = %+v, want count 30 despite the tiny ring", tl.StepLatency)
	}
}

// TestTimelinePhasesSumToAttemptWallTime is the acceptance criterion: the
// per-phase durations of a traced job's timeline must sum (within
// tolerance) to the job's total attempt wall time.
func TestTimelinePhasesSumToAttemptWallTime(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer shutdownNow(t, s)
	snap, err := s.Submit(tracedJob(40, 0))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, snap.ID, "done", func(sn Snapshot) bool { return sn.State == StateDone })

	tl, err := s.JobTimeline(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tl.State != StateDone || !tl.Enabled {
		t.Fatalf("timeline state=%s enabled=%v, want done and enabled", tl.State, tl.Enabled)
	}
	if tl.TotalNS <= 0 || tl.PhaseNS <= 0 {
		t.Fatalf("timeline totals empty: total=%d phase=%d", tl.TotalNS, tl.PhaseNS)
	}
	ratio := float64(tl.PhaseNS) / float64(tl.TotalNS)
	if ratio < 0.50 || ratio > 1.10 {
		t.Fatalf("phase sum %d ns is %.2fx of attempt wall time %d ns, want within [0.50, 1.10]",
			tl.PhaseNS, ratio, tl.TotalNS)
	}
	names := map[string]bool{}
	for _, p := range tl.Phases {
		names[p.Name] = true
	}
	for _, want := range []string{"build", "model", "nests", "observe"} {
		if !names[want] {
			t.Errorf("timeline is missing phase %q (has %v)", want, tl.Phases)
		}
	}
}

// TestDecisionEventsMatchAdaptations is the acceptance criterion: a
// traced job's scratch-vs-diffusion decision records must match the
// tracker's adaptation events one-to-one.
func TestDecisionEventsMatchAdaptations(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer shutdownNow(t, s)
	cfg := tracedJob(40, 0)
	cfg.Strategy = "dynamic"
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, snap.ID, "done", func(sn Snapshot) bool { return sn.State == StateDone })

	tr, err := s.JobTrace(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	var decisions []obs.Event
	for _, e := range tr.Events {
		if e.Kind == obs.KindDecision {
			decisions = append(decisions, e)
		}
	}
	adapts, err := s.JobEvents(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(adapts) == 0 {
		t.Fatal("job produced no adaptation events; scenario too quiet to test against")
	}
	if len(decisions) != len(adapts) {
		t.Fatalf("%d decision events vs %d adaptation events, want one-to-one", len(decisions), len(adapts))
	}
	for i, d := range decisions {
		if got, want := d.Strategy, adapts[i].Metrics.Used.String(); got != want {
			t.Errorf("decision %d used strategy %q, adaptation event says %q", i, got, want)
		}
		if d.Step != adapts[i].Step {
			t.Errorf("decision %d at step %d, adaptation event at step %d", i, d.Step, adapts[i].Step)
		}
	}
}

func TestTraceLedgerWrittenAndRecoverable(t *testing.T) {
	dir := t.TempDir()
	s := NewScheduler(SchedulerConfig{Workers: 1, LedgerDir: dir})
	defer shutdownNow(t, s)
	snap, err := s.Submit(tracedJob(12, 0))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, snap.ID, "done", func(sn Snapshot) bool { return sn.State == StateDone })

	tr, err := s.JobTrace(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snap.ID+".jsonl")
	if tr.LedgerPath != path {
		t.Fatalf("trace reports ledger %q, want %q", tr.LedgerPath, path)
	}
	if tr.LedgerError != "" {
		t.Fatalf("ledger error: %s", tr.LedgerError)
	}
	events, skipped, err := obs.ReadLedgerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("clean ledger skipped %d lines", skipped)
	}
	// The ledger keeps everything the bounded ring may have evicted; its
	// tail must be exactly the buffered events.
	if len(events) < len(tr.Events) {
		t.Fatalf("ledger holds %d events, fewer than the %d buffered", len(events), len(tr.Events))
	}
	tail := events[len(events)-len(tr.Events):]
	for i := range tail {
		if tail[i].Seq != tr.Events[i].Seq || tail[i].Kind != tr.Events[i].Kind {
			t.Fatalf("ledger tail diverges at %d: %+v vs %+v", i, tail[i], tr.Events[i])
		}
	}

	// Tear the final line as a crash would and verify recovery drops only
	// that line.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	recovered, skipped, err := obs.ReadLedgerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 || len(recovered) != len(events)-1 {
		t.Fatalf("torn ledger recovered %d events with %d skipped, want %d and 1",
			len(recovered), skipped, len(events)-1)
	}
}

func TestMetricsExposeQueueAndHistogramSeries(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer shutdownNow(t, s)
	snap, err := s.Submit(smallJob(5))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, snap.ID, "done", func(sn Snapshot) bool { return sn.State == StateDone })

	rec := httptest.NewRecorder()
	NewHandler(s).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"nestserved_queue_depth 0",
		"nestserved_queue_capacity 256",
		"nestserved_jobs_running 0",
		"nestserved_step_duration_seconds_count 5",
		`nestserved_step_duration_seconds{quantile="0.5"}`,
		"nestserved_checkpoint_duration_seconds_count",
		"nestserved_job_duration_seconds_count 1",
		"nestserved_trace_ledger_failures_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestServeTracedWaitSplitsPublishFromSleep reads a traced throttled job
// while it waits between steps: each read answered in the wait is its own
// "publish" phase, and "sleep" covers only the time asleep — per wait,
// sleep plus its publishes fit between the event that precedes the wait
// and the sleep event's own emission, which double counting would exceed.
func TestServeTracedWaitSplitsPublishFromSleep(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer shutdownNow(t, s)
	cfg := tracedJob(12, 0)
	cfg.StepDelayMS = 30
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, snap.ID, "running", func(sn Snapshot) bool { return sn.Step > 0 })
	for {
		if _, err := s.ReadField(snap.ID, "", "", ""); err != nil {
			t.Fatal(err)
		}
		if sn, err := s.Get(snap.ID); err != nil || sn.State.Terminal() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitFor(t, s, snap.ID, "done", func(sn Snapshot) bool { return sn.State == StateDone })

	tl, err := s.JobTimeline(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, p := range tl.Phases {
		counts[p.Name] = p.Count
	}
	if counts["sleep"] != int64(cfg.Steps) {
		t.Fatalf("%d sleep phases, want one per step (%d)", counts["sleep"], cfg.Steps)
	}
	if counts["publish"] == 0 {
		t.Fatalf("no publish phase although the job was read during its waits (phases %v)", counts)
	}

	tr, err := s.JobTrace(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitStart := -1 // index of the first event of the current wait
	for i, e := range tr.Events {
		if e.Kind != obs.KindPhase || (e.Phase != "publish" && e.Phase != "sleep") {
			waitStart = -1
			continue
		}
		if waitStart < 0 {
			waitStart = i
		}
		if e.Phase != "sleep" {
			continue
		}
		if waitStart == 0 {
			t.Fatal("a wait opens the trace: nothing precedes it")
		}
		var accounted int64
		for _, w := range tr.Events[waitStart : i+1] {
			accounted += w.DurNS
		}
		if bound := e.T.Sub(tr.Events[waitStart-1].T).Nanoseconds(); accounted > bound {
			t.Fatalf("step %d: sleep %d ns + publish %d ns exceed the %d ns the wait can have lasted",
				e.Step, e.DurNS, accounted-e.DurNS, bound)
		}
		waitStart = -1
	}
}
