package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"nestdiff/internal/core"
	"nestdiff/internal/faults"
	"nestdiff/internal/scenario"
	"nestdiff/internal/service"
)

// chaosFleetJob mirrors the service chaos suite's drill workload:
// retries, frequent auto-checkpoints, so a death around step 35 rolls
// back at most 10 steps.
func chaosFleetJob(steps int) service.JobConfig {
	cfg := fleetJob(steps)
	cfg.MaxRetries = 3
	cfg.RetryBackoffMS = 5
	cfg.AutoCheckpointSteps = 10
	return cfg
}

// fleetNode is one in-process fleet worker: scheduler, HTTP API and
// heartbeating agent.
type fleetNode struct {
	sched *service.Scheduler
	srv   *httptest.Server
	agent *service.Agent
}

// startFleetNode boots a worker that joins the fleet the way a real
// nestserved does: through its agent's registration and heartbeats. All
// chaos workers share the checkpoint dir and leave startup recovery to
// the controller's adoption path.
func startFleetNode(t *testing.T, ctlURL, id, ckptDir string, plan *faults.Plan) *fleetNode {
	t.Helper()
	sched := service.NewScheduler(service.SchedulerConfig{
		Workers:         1,
		CheckpointDir:   ckptDir,
		DisableRecovery: true,
		Faults:          plan,
	})
	srv := httptest.NewServer(service.NewHandler(sched))
	agent, err := service.StartAgent(service.AgentConfig{
		ControllerURL:     ctlURL,
		WorkerID:          id,
		AdvertiseURL:      srv.URL,
		HeartbeatInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		agent.Stop()
		srv.Close()
		sched.Shutdown(context.Background())
	})
	return &fleetNode{sched: sched, srv: srv, agent: agent}
}

// fetchJSON GETs a URL and decodes the JSON body, failing on non-200.
func fetchJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// fetchText GETs a URL and returns the body as a string.
func fetchText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	return buf.String()
}

// waitSched polls a scheduler directly until cond holds.
func waitSched(t *testing.T, s *service.Scheduler, id, what string, cond func(service.Snapshot) bool) service.Snapshot {
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
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s on job %s", what, id)
	return service.Snapshot{}
}

// TestFleetChaosWorkerDeathAdoptionBitIdentical is the fleet's core
// resilience claim, the distributed analogue of the scheduler chaos
// suite: a worker that dies mid-run (heartbeats stop, HTTP unreachable,
// scheduler hard-killed with no chance to park or checkpoint) has its job
// adopted by the survivor from the latest persisted checkpoint in the
// shared store, and the resumed run finishes bit-identically to a run
// that was never interrupted — same nest set, same adaptation-event
// trace, same cumulative cost model.
//
// The monsoon case runs the default, scripted scenario with a cut every 5
// steps: the base is cut at step 5, where the schedule's first storm is
// due, so the survivor's replay from that base must inject it.
func TestFleetChaosWorkerDeathAdoptionBitIdentical(t *testing.T) {
	const steps = 60
	t.Run("cells", func(t *testing.T) { workerDeathAdoptionDrill(t, chaosFleetJob(steps)) })
	t.Run("monsoon", func(t *testing.T) {
		cfg := chaosFleetJob(steps)
		cfg.Scenario, cfg.Seed = "monsoon", 2607
		cfg.NX, cfg.NY, cfg.Cells = 0, 0, nil
		cfg.AutoCheckpointSteps = 5
		mc := scenario.DefaultMonsoonConfig()
		mc.Steps, mc.Seed = steps, cfg.Seed
		if sched := scenario.MonsoonSchedule(mc); len(sched) == 0 || sched[0].AtStep != 5 {
			t.Fatalf("monsoon schedule opens %+v; the drill needs a storm at the base step 5", sched[:min(1, len(sched))])
		}
		workerDeathAdoptionDrill(t, cfg)
	})
}

func workerDeathAdoptionDrill(t *testing.T, cfg service.JobConfig) {
	steps := cfg.Steps
	// Ground truth: the same job on an undisturbed single scheduler.
	ref := service.NewScheduler(service.SchedulerConfig{Workers: 1})
	defer ref.Shutdown(context.Background())
	refSnap, err := ref.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refFinal := waitSched(t, ref, refSnap.ID, "terminal", func(sn service.Snapshot) bool {
		return sn.State.Terminal()
	})
	if refFinal.State != service.StateDone {
		t.Fatalf("fault-free run finished %s (error %q)", refFinal.State, refFinal.Error)
	}
	refEvents, err := ref.JobEvents(refSnap.ID)
	if err != nil {
		t.Fatal(err)
	}

	// The fleet: two workers sharing one checkpoint store, heartbeating
	// fast so the controller notices the death in test time. The first
	// fleet job is f-1; the ring decides up front which worker owns it —
	// that worker is the victim, the other the survivor.
	ckptDir := t.TempDir()
	ctl, ctlSrv := startController(t, Config{
		LivenessDeadline: 250 * time.Millisecond,
		SweepInterval:    25 * time.Millisecond,
	})
	victimID := BuildRing([]string{"wA", "wB"}, 0).Owner("f-1")
	survivorID := "wA"
	if victimID == "wA" {
		survivorID = "wB"
	}

	// The kill closure is bound late: it needs the victim's scheduler,
	// server and agent, which don't exist until after the fault plan that
	// fires it is installed in the victim's SchedulerConfig.
	var killVictim func()
	plan := faults.NewPlan(7).KillWorker(35, func() { killVictim() })

	victim := startFleetNode(t, ctlSrv.URL, victimID, ckptDir, plan)
	survivor := startFleetNode(t, ctlSrv.URL, survivorID, ckptDir, nil)

	// Death at step 35: past checkpoints 10/20/30, so the survivor must
	// resume from step 30 and re-execute five steps. The kill is a hard
	// stop — agent silenced, HTTP torn down, scheduler killed without
	// parking — exactly a process crash as seen from the fleet. It waits
	// (bounded) until the submit has returned: a death that tears down the
	// worker's placement reply is a correct 502, and not this drill.
	placed := make(chan struct{})
	killVictim = func() {
		awaitPlaced(placed)
		victim.agent.Stop()
		victim.srv.CloseClientConnections()
		victim.srv.Close()
		victim.sched.Kill()
	}

	// Both agents register asynchronously; admission needs them live.
	deadline := time.Now().Add(10 * time.Second)
	for len(ctl.reg.live()) < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := len(ctl.reg.live()); n != 2 {
		t.Fatalf("only %d workers registered", n)
	}

	resp := submitJob(t, ctlSrv.URL, cfg)
	close(placed)
	if resp.StatusCode != 201 {
		t.Fatalf("fleet submit = %d", resp.StatusCode)
	}
	snap := decodeSnap(t, resp)
	if snap.ID != "f-1" {
		t.Fatalf("fleet job ID = %q", snap.ID)
	}

	final := pollFleet(t, ctlSrv.URL, snap.ID, "done after adoption", func(sn service.Snapshot) bool {
		return sn.State == service.StateDone
	})

	// The job must have finished on the survivor, via exactly one
	// adoption, after the controller declared the victim dead.
	placements := ctl.Placements()
	if len(placements) != 1 {
		t.Fatalf("placement table = %+v", placements)
	}
	p := placements[0]
	if p.WorkerID != survivorID {
		t.Fatalf("job finished on %s, want survivor %s", p.WorkerID, survivorID)
	}
	if p.Adoptions != 1 {
		t.Fatalf("adoptions = %d, want exactly 1", p.Adoptions)
	}
	// At least the killed worker; under CI load the survivor can transiently
	// miss the tight liveness deadline too and re-register — a detector
	// false-positive that cannot double-run the job (the adoption counters
	// below stay exact).
	if got := ctl.Metrics().Value("nestctl_fleet_workers_dead_total"); got < 1 {
		t.Fatalf("workers dead counter = %d, want >= 1", got)
	}
	if got := ctl.Metrics().Value("nestctl_fleet_adoptions_total"); got != 1 {
		t.Fatalf("adoptions counter = %d, want 1", got)
	}
	if survivor.sched.Metrics().Value("nestserved_jobs_adopted_total") != 1 {
		t.Fatal("survivor scheduler did not count the adoption")
	}
	if n := len(plan.Injections()); n != 1 {
		t.Fatalf("fault plan recorded %d injections, want 1", n)
	}

	// Bit-identical resume: nest set, event trace and cost model all
	// match the uninterrupted run.
	if final.Step != steps {
		t.Fatalf("adopted run finished at step %d, want %d", final.Step, steps)
	}
	if !reflect.DeepEqual(final.ActiveNests, refFinal.ActiveNests) {
		t.Fatalf("final nest sets diverged:\nfleet      %+v\nfault-free %+v",
			final.ActiveNests, refFinal.ActiveNests)
	}
	events := fetchFleetEvents(t, ctlSrv.URL, snap.ID)
	if !reflect.DeepEqual(events, refEvents) {
		t.Fatalf("event traces diverged: fleet %d events, fault-free %d events\nfleet      %+v\nfault-free %+v",
			len(events), len(refEvents), events, refEvents)
	}
	if final.ExecTime != refFinal.ExecTime || final.RedistTime != refFinal.RedistTime {
		t.Fatalf("cumulative costs diverged: exec %g vs %g, redist %g vs %g",
			final.ExecTime, refFinal.ExecTime, final.RedistTime, refFinal.RedistTime)
	}

	// The fleet view reflects the death and the adoption.
	text := fetchText(t, ctlSrv.URL+"/metrics")
	for _, want := range []string{
		"nestctl_fleet_workers_dead_total 1",
		"nestctl_fleet_adoptions_total 1",
		"nestctl_fleet_workers_live 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("fleet metrics missing %q:\n%s", want, text)
		}
	}
}

// awaitPlaced holds a KillWorker drill's kill until the test's submit
// has returned (closing placed), or 10 s pass. A victim's job can reach
// its kill step before the controller has the worker's placement reply.
func awaitPlaced(placed <-chan struct{}) {
	select {
	case <-placed:
	case <-time.After(10 * time.Second):
	}
}

// TestFleetChaosDeathBeforeFirstCheckpointRestartsFromScratch: a worker
// that dies before its job's first auto-checkpoint leaves nothing in the
// shared store; adoption must fall back to restarting the job from its
// config — and still converge to the fault-free result.
func TestFleetChaosDeathBeforeFirstCheckpointRestartsFromScratch(t *testing.T) {
	const steps = 40
	cfg := chaosFleetJob(steps)

	ref := service.NewScheduler(service.SchedulerConfig{Workers: 1})
	defer ref.Shutdown(context.Background())
	refSnap, err := ref.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refFinal := waitSched(t, ref, refSnap.ID, "terminal", func(sn service.Snapshot) bool {
		return sn.State.Terminal()
	})
	refEvents, err := ref.JobEvents(refSnap.ID)
	if err != nil {
		t.Fatal(err)
	}

	ckptDir := t.TempDir()
	ctl, ctlSrv := startController(t, Config{
		LivenessDeadline: 250 * time.Millisecond,
		SweepInterval:    25 * time.Millisecond,
	})
	victimID := BuildRing([]string{"wA", "wB"}, 0).Owner("f-1")
	survivorID := "wA"
	if victimID == "wA" {
		survivorID = "wB"
	}

	var killVictim func()
	// Step 5: before the first auto-checkpoint at 10 — no file on disk.
	plan := faults.NewPlan(7).KillWorker(5, func() { killVictim() })

	victim := startFleetNode(t, ctlSrv.URL, victimID, ckptDir, plan)
	survivor := startFleetNode(t, ctlSrv.URL, survivorID, ckptDir, nil)

	// As above, the kill waits until the placement reply is through.
	placed := make(chan struct{})
	killVictim = func() {
		awaitPlaced(placed)
		victim.agent.Stop()
		victim.srv.CloseClientConnections()
		victim.srv.Close()
		victim.sched.Kill()
	}

	deadline := time.Now().Add(10 * time.Second)
	for len(ctl.reg.live()) < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	resp := submitJob(t, ctlSrv.URL, cfg)
	close(placed)
	if resp.StatusCode != 201 {
		t.Fatalf("fleet submit = %d", resp.StatusCode)
	}
	snap := decodeSnap(t, resp)

	final := pollFleet(t, ctlSrv.URL, snap.ID, "done after scratch adoption", func(sn service.Snapshot) bool {
		return sn.State == service.StateDone
	})
	placements := ctl.Placements()
	if placements[0].WorkerID != survivorID || placements[0].Adoptions != 1 {
		t.Fatalf("placement after scratch adoption = %+v", placements[0])
	}
	if survivor.sched.Metrics().Value("nestserved_jobs_adopted_total") != 1 {
		t.Fatal("survivor did not count the adoption")
	}
	if !reflect.DeepEqual(final.ActiveNests, refFinal.ActiveNests) {
		t.Fatalf("scratch-adopted nest set diverged:\nfleet %+v\nref   %+v",
			final.ActiveNests, refFinal.ActiveNests)
	}
	events := fetchFleetEvents(t, ctlSrv.URL, snap.ID)
	if !reflect.DeepEqual(events, refEvents) {
		t.Fatalf("scratch-adopted trace diverged (%d vs %d events)", len(events), len(refEvents))
	}
}

// fetchFleetEvents reads a job's adaptation events through the
// controller's proxy.
func fetchFleetEvents(t *testing.T, ctlURL, id string) []core.AdaptationEvent {
	t.Helper()
	var events []core.AdaptationEvent
	fetchJSON(t, ctlURL+"/jobs/"+id+"/events", &events)
	return events
}
