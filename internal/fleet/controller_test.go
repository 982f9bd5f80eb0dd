package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nestdiff/internal/core"
	"nestdiff/internal/service"
	"nestdiff/internal/wrfsim"
)

// worker bundles one in-process nestserved: scheduler plus HTTP API.
type worker struct {
	id    string
	sched *service.Scheduler
	srv   *httptest.Server
}

// startWorker boots an in-process worker and registers it with the
// controller (directly, not through an agent — the agent's loop is
// exercised by the chaos suite; here registration is synchronous so tests
// have no warm-up window).
func startWorker(t *testing.T, ctl *httptest.Server, id string, cfg service.SchedulerConfig) *worker {
	t.Helper()
	cfg.DisableRecovery = true
	sched := service.NewScheduler(cfg)
	srv := httptest.NewServer(service.NewHandler(sched))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { sched.Shutdown(context.Background()) })
	if ctl != nil {
		registerWorker(t, ctl.URL, id, srv.URL)
	}
	return &worker{id: id, sched: sched, srv: srv}
}

func registerWorker(t *testing.T, ctlURL, id, url string) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"id": id, "url": url})
	resp, err := http.Post(ctlURL+"/fleet/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s: status %d", id, resp.StatusCode)
	}
}

// startController boots a controller with a liveness deadline long enough
// that directly-registered workers never expire mid-test.
func startController(t *testing.T, cfg Config) (*Controller, *httptest.Server) {
	t.Helper()
	if cfg.LivenessDeadline == 0 {
		cfg.LivenessDeadline = time.Minute
	}
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = 20 * time.Millisecond
	}
	ctl := NewController(cfg)
	t.Cleanup(ctl.Close)
	srv := httptest.NewServer(ctl.Handler())
	t.Cleanup(srv.Close)
	return ctl, srv
}

// fleetCells mirrors the service suite's two-storm population.
func fleetCells() []wrfsim.Cell {
	return []wrfsim.Cell{
		{X: 20, Y: 18, Radius: 5, Peak: 2.5, Life: 2 * 3600},
		{X: 70, Y: 50, Radius: 4, Peak: 2.0, Life: 6 * 3600},
	}
}

// fleetJob is the standard fleet workload: the service suite's small
// cells-scenario job.
func fleetJob(steps int) service.JobConfig {
	return service.JobConfig{
		Cores:         256,
		Machine:       "torus",
		Strategy:      "diffusion",
		Scenario:      "cells",
		NX:            96,
		NY:            72,
		Cells:         fleetCells(),
		Steps:         steps,
		Interval:      5,
		AnalysisRanks: 6,
		MaxNests:      4,
	}
}

// submitJob POSTs a job to the controller and returns the response.
func submitJob(t *testing.T, ctlURL string, cfg service.JobConfig) *http.Response {
	t.Helper()
	body, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ctlURL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeSnap(t *testing.T, resp *http.Response) service.Snapshot {
	t.Helper()
	defer resp.Body.Close()
	var snap service.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// pollFleet polls the controller's job view until cond holds. It
// tolerates transient non-200s (a dead owner yields 502 until adoption
// re-homes the job).
func pollFleet(t *testing.T, ctlURL, id, what string, cond func(service.Snapshot) bool) service.Snapshot {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var last service.Snapshot
	for time.Now().Before(deadline) {
		resp, err := http.Get(ctlURL + "/jobs/" + id)
		if err == nil && resp.StatusCode == http.StatusOK {
			snap := decodeSnap(t, resp)
			if cond(snap) {
				return snap
			}
			last = snap
		} else if err == nil {
			resp.Body.Close()
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s on fleet job %s (last snapshot %+v)", what, id, last)
	return service.Snapshot{}
}

func TestControllerMembershipAndReadiness(t *testing.T) {
	_, ctlSrv := startController(t, Config{})

	resp, err := http.Get(ctlSrv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no workers = %d, want 503", resp.StatusCode)
	}

	w1 := startWorker(t, ctlSrv, "w1", service.SchedulerConfig{Workers: 1})
	_ = w1

	resp, err = http.Get(ctlSrv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with a live worker = %d, want 200", resp.StatusCode)
	}

	// Heartbeat for a registered worker succeeds; an unknown worker gets
	// 404 (the agent's cue to re-register).
	for _, tc := range []struct {
		id   string
		want int
	}{{"w1", http.StatusOK}, {"ghost", http.StatusNotFound}} {
		body, _ := json.Marshal(map[string]string{"id": tc.id})
		resp, err := http.Post(ctlSrv.URL+"/fleet/heartbeat", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("heartbeat %s = %d, want %d", tc.id, resp.StatusCode, tc.want)
		}
	}

	var members []WorkerInfo
	resp, err = http.Get(ctlSrv.URL + "/fleet/workers")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&members); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(members) != 1 || members[0].ID != "w1" || !members[0].Live {
		t.Fatalf("membership = %+v, want one live w1", members)
	}
}

func TestControllerNoWorkers503(t *testing.T) {
	_, ctlSrv := startController(t, Config{})
	resp := submitJob(t, ctlSrv.URL, fleetJob(10))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with no workers = %d, want 503", resp.StatusCode)
	}
}

// TestControllerPlacesProxiesAndCompletes is the happy path: jobs
// submitted to the controller spread across workers by the ring, run to
// completion, and every job API call routes to the owning worker.
func TestControllerPlacesProxiesAndCompletes(t *testing.T) {
	ctl, ctlSrv := startController(t, Config{})
	workers := map[string]*worker{}
	for _, id := range []string{"w1", "w2", "w3"} {
		workers[id] = startWorker(t, ctlSrv, id, service.SchedulerConfig{Workers: 2})
	}

	const jobs = 6
	owners := map[string]string{}
	for i := 0; i < jobs; i++ {
		resp := submitJob(t, ctlSrv.URL, fleetJob(40))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d = %d, want 201", i, resp.StatusCode)
		}
		ownerID := resp.Header.Get("X-Fleet-Worker")
		snap := decodeSnap(t, resp)
		if snap.ID != fmt.Sprintf("f-%d", i+1) {
			t.Fatalf("fleet job ID = %q, want f-%d", snap.ID, i+1)
		}
		if _, ok := workers[ownerID]; !ok {
			t.Fatalf("job %s placed on unknown worker %q", snap.ID, ownerID)
		}
		owners[snap.ID] = ownerID
	}

	// Placement is ring-driven and must agree with the ring's own answer.
	ring := BuildRing([]string{"w1", "w2", "w3"}, 0)
	for id, ownerID := range owners {
		if want := ring.Owner(id); want != ownerID {
			t.Fatalf("job %s on %s, ring says %s", id, ownerID, want)
		}
	}

	for id := range owners {
		final := pollFleet(t, ctlSrv.URL, id, "done", func(sn service.Snapshot) bool {
			return sn.State == service.StateDone
		})
		if final.Step != 40 {
			t.Fatalf("job %s finished at step %d, want 40", id, final.Step)
		}
		// The events proxy reaches the owner and yields the job's trace.
		resp, err := http.Get(ctlSrv.URL + "/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events proxy for %s = %d", id, resp.StatusCode)
		}
		var events []core.AdaptationEvent
		if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(events) != 8 {
			t.Fatalf("job %s proxied %d events, want 8", id, len(events))
		}
	}

	if got := ctl.Metrics().Value("nestctl_fleet_jobs_placed_total"); got != jobs {
		t.Fatalf("jobs placed counter = %d, want %d", got, jobs)
	}

	// The placement table lists every job, and after a sweep reflects the
	// terminal states.
	ctl.Sweep()
	var placed []placement
	resp, err := http.Get(ctlSrv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&placed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(placed) != jobs {
		t.Fatalf("placement table has %d entries, want %d", len(placed), jobs)
	}
	for _, p := range placed {
		if p.State != service.StateDone {
			t.Fatalf("placement %s state %s after completion sweep", p.ID, p.State)
		}
	}
}

// TestControllerPauseResumeRoutesToOwner drives lifecycle verbs through
// the controller.
func TestControllerPauseResumeRoutesToOwner(t *testing.T) {
	_, ctlSrv := startController(t, Config{})
	startWorker(t, ctlSrv, "w1", service.SchedulerConfig{Workers: 1})

	cfg := fleetJob(4000)
	cfg.StepDelayMS = 1
	resp := submitJob(t, ctlSrv.URL, cfg)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	snap := decodeSnap(t, resp)

	// Past its first step: a job is running while it still builds its
	// pipeline, and a pause landing there parks it at step 0.
	pollFleet(t, ctlSrv.URL, snap.ID, "running", func(sn service.Snapshot) bool {
		return sn.State == service.StateRunning && sn.Step > 0
	})
	presp, err := http.Post(ctlSrv.URL+"/jobs/"+snap.ID+"/pause", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("pause through controller = %d", presp.StatusCode)
	}
	paused := pollFleet(t, ctlSrv.URL, snap.ID, "paused", func(sn service.Snapshot) bool {
		return sn.State == service.StatePaused
	})
	if paused.Step == 0 {
		t.Fatal("paused at step 0: pause raced submission, not a mid-run pause")
	}

	rresp, err := http.Post(ctlSrv.URL+"/jobs/"+snap.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel through controller = %d", rresp.StatusCode)
	}
	pollFleet(t, ctlSrv.URL, snap.ID, "cancelled", func(sn service.Snapshot) bool {
		return sn.State == service.StateCancelled
	})

	// Unknown verbs and unknown jobs 404 at the controller without a
	// worker round-trip.
	vresp, err := http.Post(ctlSrv.URL+"/jobs/"+snap.ID+"/explode", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	vresp.Body.Close()
	if vresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown verb = %d, want 404", vresp.StatusCode)
	}
	gresp, err := http.Get(ctlSrv.URL + "/jobs/f-999")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", gresp.StatusCode)
	}
}

// TestControllerShedsWhenWorkerSaturated: a full worker queue surfaces to
// the fleet client as 429 + Retry-After, relayed by the controller.
func TestControllerShedsWhenWorkerSaturated(t *testing.T) {
	ctl, ctlSrv := startController(t, Config{})
	w := startWorker(t, ctlSrv, "w1", service.SchedulerConfig{Workers: 1, QueueDepth: 1})

	// Saturate: one slow job occupies the single worker slot, one more
	// fills the queue; the next submission must shed.
	slow := fleetJob(5000)
	slow.StepDelayMS = 2
	sawTooMany := false
	for i := 0; i < 8 && !sawTooMany; i++ {
		resp := submitJob(t, ctlSrv.URL, slow)
		switch resp.StatusCode {
		case http.StatusCreated:
		case http.StatusTooManyRequests:
			sawTooMany = true
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Fatal("429 without Retry-After header")
			}
			var body map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["error"] == "" {
				t.Fatalf("429 body = %v, %v", body, err)
			}
		default:
			t.Fatalf("submit %d = %d, want 201 or 429", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if !sawTooMany {
		t.Fatal("never saw a 429 from a 1-slot, 1-queue worker")
	}
	if ctl.Metrics().Value("nestctl_fleet_jobs_rejected_total") == 0 {
		t.Fatal("saturation not counted")
	}
	// Hard-stop the worker: Shutdown would wait out the slow jobs.
	w.sched.Kill()
}

// TestControllerMaxPendingSheds: the controller's own admission cap sheds
// before any worker is consulted.
func TestControllerMaxPendingSheds(t *testing.T) {
	ctl, ctlSrv := startController(t, Config{MaxPending: 1, RetryAfterSeconds: 7})
	w := startWorker(t, ctlSrv, "w1", service.SchedulerConfig{Workers: 1})

	slow := fleetJob(5000)
	slow.StepDelayMS = 2
	resp := submitJob(t, ctlSrv.URL, slow)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	resp = submitJob(t, ctlSrv.URL, fleetJob(10))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit beyond MaxPending = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want the configured 7", ra)
	}
	if ctl.Metrics().Value("nestctl_fleet_jobs_rejected_total") != 1 {
		t.Fatalf("shed counter = %d, want 1", ctl.Metrics().Value("nestctl_fleet_jobs_rejected_total"))
	}
	w.sched.Kill()
}

// TestControllerAggregatesFleetMetrics: /metrics and /statz present one
// fleet-wide view summed over the live workers.
func TestControllerAggregatesFleetMetrics(t *testing.T) {
	_, ctlSrv := startController(t, Config{})
	startWorker(t, ctlSrv, "w1", service.SchedulerConfig{Workers: 2})
	startWorker(t, ctlSrv, "w2", service.SchedulerConfig{Workers: 2})

	const jobs, steps = 4, 30
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		resp := submitJob(t, ctlSrv.URL, fleetJob(steps))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit = %d", resp.StatusCode)
		}
		ids = append(ids, decodeSnap(t, resp).ID)
	}
	for _, id := range ids {
		pollFleet(t, ctlSrv.URL, id, "done", func(sn service.Snapshot) bool {
			return sn.State == service.StateDone
		})
	}

	var stats FleetStats
	resp, err := http.Get(ctlSrv.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.WorkersLive != 2 {
		t.Fatalf("workers live = %d, want 2", stats.WorkersLive)
	}
	if got := stats.Counters["nestctl_fleet_jobs_completed_total"]; got != jobs {
		t.Fatalf("fleet jobs completed = %d, want %d", got, jobs)
	}
	if got, want := stats.Counters["nestctl_fleet_steps_executed_total"], int64(jobs*steps); got != want {
		t.Fatalf("fleet steps executed = %d, want %d", got, want)
	}
	if stats.WorkerSlots != 4 {
		t.Fatalf("fleet worker slots = %d, want 4", stats.WorkerSlots)
	}

	mresp, err := http.Get(ctlSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf := new(bytes.Buffer)
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"nestctl_fleet_workers_live 2",
		fmt.Sprintf("nestctl_fleet_jobs_placed_total %d", jobs),
		fmt.Sprintf("nestctl_fleet_steps_executed_total %d", jobs*steps),
		fmt.Sprintf("nestctl_fleet_jobs_completed_total %d", jobs),
		`nestctl_fleet_jobs{state="done"} 4`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}
