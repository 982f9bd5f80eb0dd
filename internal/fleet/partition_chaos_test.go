package fleet

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nestdiff/internal/faults"
	"nestdiff/internal/service"
)

// The split-brain chaos suite. KillWorker drills (chaos_test.go) model a
// machine dying; these drills model the nastier failure — a machine that
// is perfectly healthy but unreachable. The partitioned worker keeps
// stepping its job and writing to the shared checkpoint store while the
// controller, seeing only silence, declares it dead and re-homes the job
// onto a survivor under a bumped placement epoch. Two executions of the
// same job are now alive at once; epoch fencing must guarantee that
// exactly one survives, that the stale one never clobbers the store, and
// that the surviving run is bit-identical to a run that was never
// disturbed.

// startPartitionNode boots a fleet worker whose agent reports job epochs
// (Sched) and whose control links can be partitioned (Faults). The plan is
// shared with the controller so both halves of a link rule point at the
// same direction map.
func startPartitionNode(t *testing.T, ctlURL, id, ckptDir string, plan *faults.Plan) *fleetNode {
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
		Sched:             sched,
		Faults:            plan,
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

// waitLiveWorkers blocks until the controller sees n live workers.
func waitLiveWorkers(t *testing.T, ctl *Controller, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(ctl.reg.live()) < n && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := len(ctl.reg.live()); got < n {
		t.Fatalf("only %d of %d workers registered", got, n)
	}
}

// waitAdoption blocks until the job's placement records exactly one
// adoption, returning the placement.
func waitAdoption(t *testing.T, ctl *Controller) placement {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if ps := ctl.Placements(); len(ps) == 1 && ps[0].Adoptions == 1 {
			return ps[0]
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for adoption; placements = %+v", ctl.Placements())
	return placement{}
}

// TestFleetChaosSplitBrainPartitionFencesStaleOwner is the suite's core
// claim. A full (both-direction) partition isolates the job's owner past
// the liveness deadline; the survivor adopts the job under epoch 2 and
// runs it to completion while the old owner — alive the whole time —
// keeps executing its stale epoch-1 copy. The heartbeat direction is then
// healed. The drill passes only if the stale copy is fenced (not
// cancelled, not failed, and without ever deleting or overwriting the
// adopter's store file) and the adopted run finishes bit-identically to
// an undisturbed reference run: same nest set, same adaptation-event
// trace, same cumulative cost model.
func TestFleetChaosSplitBrainPartitionFencesStaleOwner(t *testing.T) {
	const steps = 90
	cfg := chaosFleetJob(steps)
	// Slow the steps down so the partition, the liveness expiry, the
	// adoption and the fence all land while both executions are mid-run.
	cfg.StepDelayMS = 20

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

	ckptDir := t.TempDir()
	victimID := BuildRing([]string{"wA", "wB"}, 0).Owner("f-1")
	survivorID := "wA"
	if victimID == "wA" {
		survivorID = "wB"
	}

	// Step 35 of the victim's pipeline severs both directions of the
	// victim↔controller link: heartbeats vanish and the controller cannot
	// reach the victim — but unlike KillWorker, the victim's scheduler
	// keeps running and checkpointing.
	plan := faults.NewPlan(11).
		PartitionAtStep(35, victimID, faults.ControllerNode).
		PartitionAtStep(35, faults.ControllerNode, victimID)

	ctl, ctlSrv := startController(t, Config{
		LivenessDeadline: 250 * time.Millisecond,
		SweepInterval:    25 * time.Millisecond,
		Faults:           plan,
	})
	victim := startPartitionNode(t, ctlSrv.URL, victimID, ckptDir, plan)
	survivor := startPartitionNode(t, ctlSrv.URL, survivorID, ckptDir, nil)
	waitLiveWorkers(t, ctl, 2)

	resp := submitJob(t, ctlSrv.URL, cfg)
	if resp.StatusCode != 201 {
		t.Fatalf("fleet submit = %d", resp.StatusCode)
	}
	snap := decodeSnap(t, resp)
	if snap.ID != "f-1" {
		t.Fatalf("fleet job ID = %q", snap.ID)
	}

	// The controller must declare the silent victim dead and re-home the
	// job onto the survivor under a bumped epoch.
	adopted := waitAdoption(t, ctl)
	if adopted.WorkerID != survivorID {
		t.Fatalf("adopted onto %s, want survivor %s", adopted.WorkerID, survivorID)
	}
	if adopted.Epoch != 2 {
		t.Fatalf("adoption epoch = %d, want 2", adopted.Epoch)
	}

	// Heal the heartbeat direction: the victim's beats flow again, carrying
	// its stale epoch-1 claim on f-1, and the controller's reply orders the
	// fence. The controller→victim direction stays down, which pins the job
	// on the survivor (the ring would otherwise migrate it straight back to
	// its original owner) so the drill's assertions are deterministic.
	plan.Heal(victimID, faults.ControllerNode)

	final := pollFleet(t, ctlSrv.URL, snap.ID, "done on the survivor", func(sn service.Snapshot) bool {
		return sn.State == service.StateDone
	})

	// Exactly one surviving execution: the victim's copy must end fenced —
	// killed as superseded, not cancelled and not failed — through either
	// fencing path (the heartbeat reply after the heal, or the store
	// refusing its stale-epoch checkpoint write).
	fencedSnap := waitSched(t, victim.sched, snap.ID, "fenced stale copy", func(sn service.Snapshot) bool {
		return sn.State == service.StateFenced
	})
	if fencedSnap.State != service.StateFenced {
		t.Fatalf("victim copy ended %s, want fenced", fencedSnap.State)
	}
	if got := victim.sched.Metrics().Value("nestserved_jobs_fenced_total"); got != 1 {
		t.Fatalf("victim jobsFenced = %d, want 1", got)
	}

	// The placement stayed on the survivor under the adoption epoch.
	ps := ctl.Placements()
	if len(ps) != 1 || ps[0].WorkerID != survivorID || ps[0].Adoptions != 1 || ps[0].Epoch != 2 {
		t.Fatalf("placement after split-brain = %+v", ps)
	}
	// At least the partitioned victim was declared dead. Not exactly one:
	// under CI load the survivor can transiently miss the (deliberately
	// tight) liveness deadline too — a detector false-positive the fleet
	// self-heals by re-registration, and which cannot move the job because
	// the controller→victim link is still down. The adoption count below is
	// the assertion that actually guards against double execution.
	if got := ctl.Metrics().Value("nestctl_fleet_workers_dead_total"); got < 1 {
		t.Fatalf("workers dead = %d, want >= 1 (the partitioned victim)", got)
	}
	if got := ctl.Metrics().Value("nestctl_fleet_adoptions_total"); got != 1 {
		t.Fatalf("adoptions = %d, want exactly 1", got)
	}
	if survivor.sched.Metrics().Value("nestserved_jobs_adopted_total") != 1 {
		t.Fatal("survivor did not count the adoption")
	}

	// Bit-identical: nest set, event trace and cost model all match the
	// undisturbed run.
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

	// No stale-epoch store writes survived: the adopter finished and
	// removed its own (epoch-2) file — the epoch guard let it — and the
	// fenced copy never touched the store, so nothing is left behind.
	if _, err := os.Stat(filepath.Join(ckptDir, snap.ID+".ckpt")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint store still holds %s.ckpt after the adopter finished (stat err %v)", snap.ID, err)
	}

	// The plan logged the two scheduled partitions and the explicit heal.
	var parts, heals int
	for _, inj := range plan.Injections() {
		switch inj.Kind {
		case faults.KindLinkPartition:
			parts++
		case faults.KindLinkHeal:
			heals++
		}
	}
	if parts != 2 || heals != 1 {
		t.Fatalf("fault log recorded %d partitions and %d heals, want 2 and 1:\n%+v",
			parts, heals, plan.Injections())
	}

	// With the controller→victim direction healed too, the victim's /statz
	// is reachable again and its fence shows in the fleet-wide roll-up: the
	// generic key-wise sum carries every worker counter, including the ones
	// the hand-written aggregation transported and then dropped.
	plan.Heal(faults.ControllerNode, victimID)
	const want = "nestctl_fleet_jobs_fenced_total 1\n"
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(fetchText(t, ctlSrv.URL+"/metrics"), want) {
		if time.Now().After(deadline) {
			t.Fatalf("controller /metrics never showed %q:\n%s", want, fetchText(t, ctlSrv.URL+"/metrics"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetChaosAsymmetricPartitionHealMigratesHome drills the asymmetric
// partition (victim→controller blocked, controller→victim open — only one
// direction of a link rule installed) through the full cycle: heartbeats
// vanish, the victim is declared dead, the survivor adopts under epoch 2;
// after the heal the victim's first heartbeat resurrects it, its stale
// copy is fenced, and — because the resurrected victim is again the ring
// owner — the rebalance pass migrates the job home under a further-bumped
// epoch, re-importing over the fenced copy. The run must still finish
// bit-identically to the undisturbed reference.
func TestFleetChaosAsymmetricPartitionHealMigratesHome(t *testing.T) {
	const steps = 100
	cfg := chaosFleetJob(steps)
	cfg.StepDelayMS = 20

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

	ckptDir := t.TempDir()
	victimID := BuildRing([]string{"wA", "wB"}, 0).Owner("f-1")
	survivorID := "wA"
	if victimID == "wA" {
		survivorID = "wB"
	}

	// Only the heartbeat direction goes down, early (step 20): the
	// controller could still reach the victim but, hearing nothing, must
	// treat it as dead all the same.
	plan := faults.NewPlan(13).PartitionAtStep(20, victimID, faults.ControllerNode)

	ctl, ctlSrv := startController(t, Config{
		LivenessDeadline: 250 * time.Millisecond,
		SweepInterval:    25 * time.Millisecond,
		Faults:           plan,
	})
	victim := startPartitionNode(t, ctlSrv.URL, victimID, ckptDir, plan)
	startPartitionNode(t, ctlSrv.URL, survivorID, ckptDir, nil)
	waitLiveWorkers(t, ctl, 2)

	resp := submitJob(t, ctlSrv.URL, cfg)
	if resp.StatusCode != 201 {
		t.Fatalf("fleet submit = %d", resp.StatusCode)
	}
	snap := decodeSnap(t, resp)

	adopted := waitAdoption(t, ctl)
	if adopted.WorkerID != survivorID || adopted.Epoch != 2 {
		t.Fatalf("adoption placement = %+v, want survivor %s at epoch 2", adopted, survivorID)
	}

	// Heal. The victim's next heartbeat resurrects it; the reply fences its
	// stale copy; and the ring — whole again — pulls the job home through
	// the migration path under epoch ≥ 3.
	plan.Heal(victimID, faults.ControllerNode)

	final := pollFleet(t, ctlSrv.URL, snap.ID, "done after migrating home", func(sn service.Snapshot) bool {
		return sn.State == service.StateDone
	})

	ps := ctl.Placements()
	if len(ps) != 1 || ps[0].WorkerID != victimID {
		t.Fatalf("job finished on %+v, want the healed original owner %s", ps, victimID)
	}
	if ps[0].Epoch < 3 {
		t.Fatalf("final epoch = %d, want >= 3 (place, adopt, migrate home)", ps[0].Epoch)
	}
	if ps[0].Adoptions != 1 {
		t.Fatalf("adoptions = %d, want exactly 1", ps[0].Adoptions)
	}
	if got := ctl.Metrics().Value("nestctl_fleet_migrations_total"); got < 1 {
		t.Fatalf("migrations = %d, want >= 1 (the homecoming)", got)
	}
	// The victim's stale epoch-1 copy was fenced before the homecoming
	// import replaced it.
	if got := victim.sched.Metrics().Value("nestserved_jobs_fenced_total"); got < 1 {
		t.Fatalf("victim jobsFenced = %d, want >= 1", got)
	}
	vsnap, err := victim.sched.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if vsnap.State != service.StateDone || vsnap.Step != steps {
		t.Fatalf("homecoming copy ended %s at step %d, want done at %d", vsnap.State, vsnap.Step, steps)
	}

	if !reflect.DeepEqual(final.ActiveNests, refFinal.ActiveNests) {
		t.Fatalf("final nest sets diverged:\nfleet      %+v\nfault-free %+v",
			final.ActiveNests, refFinal.ActiveNests)
	}
	events := fetchFleetEvents(t, ctlSrv.URL, snap.ID)
	if !reflect.DeepEqual(events, refEvents) {
		t.Fatalf("event traces diverged (%d vs %d events)", len(events), len(refEvents))
	}
	if final.ExecTime != refFinal.ExecTime || final.RedistTime != refFinal.RedistTime {
		t.Fatalf("cumulative costs diverged: exec %g vs %g, redist %g vs %g",
			final.ExecTime, refFinal.ExecTime, final.RedistTime, refFinal.RedistTime)
	}
}
