package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"nestdiff/internal/service"
)

// TestRingJoinMinimalMovement pins the consistent ring's minimal-movement
// property that join-rebalance relies on: when a worker joins, every key
// that changes owner moves TO the newcomer — never between two
// pre-existing workers — and the moved share is O(keys/N), not a full
// reshuffle.
func TestRingJoinMinimalMovement(t *testing.T) {
	const keys = 300
	old := []string{"w1", "w2", "w3", "w4"}
	before := BuildRing(old, 0)
	after := BuildRing(append(append([]string{}, old...), "w5"), 0)

	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("f-%d", i+1)
		ob, oa := before.Owner(key), after.Owner(key)
		if ob == oa {
			continue
		}
		moved++
		if oa != "w5" {
			t.Fatalf("key %s moved %s -> %s: a join must never move keys between pre-existing workers", key, ob, oa)
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved to the newcomer: the join changed nothing")
	}
	// Expectation is keys/5 = 60; allow 2x slack for hash imbalance.
	if max := 2 * keys / 5; moved > max {
		t.Fatalf("join moved %d of %d keys, want <= %d (O(keys/N))", moved, keys, max)
	}
}

// fleetWorkers decodes GET /fleet/workers into a map by ID.
func fleetWorkers(t *testing.T, ctlURL string) map[string]WorkerInfo {
	t.Helper()
	var members []WorkerInfo
	fetchJSON(t, ctlURL+"/fleet/workers", &members)
	out := make(map[string]WorkerInfo, len(members))
	for _, w := range members {
		out[w.ID] = w
	}
	return out
}

// postFleet POSTs a control verb with a JSON body and returns the status
// code and decoded body.
func postFleet(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	json.NewDecoder(resp.Body).Decode(&decoded)
	return resp.StatusCode, decoded
}

// TestFleetJoinRebalanceMigratesOnlyToNewcomer: with jobs running across
// two workers, a third joins; the sweep must migrate exactly the jobs
// whose ring owner is now the newcomer — live, via pause → export →
// import under a bumped epoch → resume — and must leave every other
// placement untouched.
func TestFleetJoinRebalanceMigratesOnlyToNewcomer(t *testing.T) {
	ctl, ctlSrv := startController(t, Config{})
	startWorker(t, ctlSrv, "w1", service.SchedulerConfig{Workers: 4})
	startWorker(t, ctlSrv, "w2", service.SchedulerConfig{Workers: 4})

	const jobs = 8
	slow := fleetJob(600)
	slow.StepDelayMS = 5
	ids := make([]string, 0, jobs)
	initial := map[string]string{}
	for i := 0; i < jobs; i++ {
		resp := submitJob(t, ctlSrv.URL, slow)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d = %d", i, resp.StatusCode)
		}
		owner := resp.Header.Get("X-Fleet-Worker")
		snap := decodeSnap(t, resp)
		ids = append(ids, snap.ID)
		initial[snap.ID] = owner
	}

	// The newcomer. The three-worker ring decides up front which jobs it
	// now owns; the sweep must move exactly those.
	startWorker(t, ctlSrv, "w3", service.SchedulerConfig{Workers: 4})
	ring3 := BuildRing([]string{"w1", "w2", "w3"}, 0)
	expectMove := map[string]bool{}
	for _, id := range ids {
		if ring3.Owner(id) == "w3" {
			expectMove[id] = true
		}
	}
	if len(expectMove) == 0 {
		t.Fatal("degenerate fixture: the ring hands the newcomer nothing")
	}

	// Wait for the sweep to settle the table into the three-worker ring.
	deadline := time.Now().Add(20 * time.Second)
	settled := func() bool {
		for _, p := range ctl.Placements() {
			want := initial[p.ID]
			if expectMove[p.ID] {
				want = "w3"
			}
			if p.WorkerID != want {
				return false
			}
		}
		return true
	}
	for !settled() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	for _, p := range ctl.Placements() {
		if expectMove[p.ID] {
			if p.WorkerID != "w3" || p.Epoch != 2 {
				t.Fatalf("job %s should have migrated to w3 at epoch 2, got %+v", p.ID, p)
			}
			if p.State.Terminal() {
				t.Fatalf("migrated job %s ended %s instead of continuing", p.ID, p.State)
			}
		} else {
			if p.WorkerID != initial[p.ID] || p.Epoch != 1 {
				t.Fatalf("job %s should not have moved (was %s), got %+v", p.ID, initial[p.ID], p)
			}
		}
	}
	if got, want := ctl.Metrics().Value("nestctl_fleet_migrations_total"), int64(len(expectMove)); got != want {
		t.Fatalf("migrations = %d, want exactly %d (only the newcomer's jobs move)", got, want)
	}

	// The moved jobs keep running on the newcomer: their snapshots advance.
	for id := range expectMove {
		pollFleet(t, ctlSrv.URL, id, "running on newcomer", func(sn service.Snapshot) bool {
			return sn.State == service.StateRunning && sn.Step > 0
		})
	}
	for _, id := range ids {
		resp, err := http.Post(ctlSrv.URL+"/jobs/"+id+"/cancel", "application/json", nil)
		if err == nil {
			resp.Body.Close()
		}
	}
}

// TestFleetDrainHandsOffEverything: POST /fleet/drain migrates every job
// off the worker with bumped epochs, fences the drained copies, routes
// new work elsewhere, and a follow-up deregister removes the worker
// without tripping readiness while peers remain.
func TestFleetDrainHandsOffEverything(t *testing.T) {
	ctl, ctlSrv := startController(t, Config{})
	w1 := startWorker(t, ctlSrv, "w1", service.SchedulerConfig{Workers: 4})
	startWorker(t, ctlSrv, "w2", service.SchedulerConfig{Workers: 4})

	const jobs = 8
	slow := fleetJob(600)
	slow.StepDelayMS = 5
	owned := 0
	for i := 0; i < jobs; i++ {
		resp := submitJob(t, ctlSrv.URL, slow)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d = %d", i, resp.StatusCode)
		}
		if resp.Header.Get("X-Fleet-Worker") == "w1" {
			owned++
		}
		decodeSnap(t, resp)
	}
	if owned == 0 {
		t.Fatal("degenerate fixture: w1 owns nothing to drain")
	}

	code, body := postFleet(t, ctlSrv.URL+"/fleet/drain", map[string]string{"id": "w1"})
	if code != http.StatusOK {
		t.Fatalf("drain = %d (%v)", code, body)
	}
	if moved, ok := body["moved"].(float64); !ok || int(moved) != owned {
		t.Fatalf("drain moved %v jobs, want %d", body["moved"], owned)
	}

	// Every placement now lives on w2; the movers carry epoch 2.
	for _, p := range ctl.Placements() {
		if p.WorkerID != "w2" {
			t.Fatalf("placement %s still on %s after drain", p.ID, p.WorkerID)
		}
		if !p.State.Terminal() && p.Epoch != 1 && p.Epoch != 2 {
			t.Fatalf("placement %s epoch = %d after drain", p.ID, p.Epoch)
		}
	}
	// The drained worker's local copies were fenced, not cancelled — the
	// fence push lands synchronously inside the drain.
	if got := w1.sched.Metrics().Value("nestserved_jobs_fenced_total"); got != int64(owned) {
		t.Fatalf("drained worker fenced %d copies, want %d", got, owned)
	}
	if ctl.Metrics().Value("nestctl_fleet_drains_total") == 0 {
		t.Fatal("drain not counted")
	}

	// Membership shows the drain; the ring routes new work around it.
	if w := fleetWorkers(t, ctlSrv.URL)["w1"]; !w.Draining || !w.Live {
		t.Fatalf("drained worker record = %+v, want live and draining", w)
	}
	resp := submitJob(t, ctlSrv.URL, fleetJob(20))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-drain submit = %d", resp.StatusCode)
	}
	if owner := resp.Header.Get("X-Fleet-Worker"); owner != "w2" {
		t.Fatalf("post-drain job placed on %s, want w2 (w1 is draining)", owner)
	}
	decodeSnap(t, resp)

	// Clean exit: deregister drops w1 from the live set without touching
	// fleet readiness, since w2 remains.
	code, _ = postFleet(t, ctlSrv.URL+"/fleet/deregister", map[string]string{"id": "w1"})
	if code != http.StatusOK {
		t.Fatalf("deregister = %d", code)
	}
	if w := fleetWorkers(t, ctlSrv.URL)["w1"]; w.Live {
		t.Fatalf("deregistered worker still live: %+v", w)
	}
	if resp, err := http.Get(ctlSrv.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("readyz after deregister with a live peer = %d, want 200", resp.StatusCode)
		}
	}

	// Unknown workers 404 on both verbs.
	if code, _ := postFleet(t, ctlSrv.URL+"/fleet/drain", map[string]string{"id": "ghost"}); code != http.StatusNotFound {
		t.Fatalf("drain unknown worker = %d, want 404", code)
	}
	if code, _ := postFleet(t, ctlSrv.URL+"/fleet/deregister", map[string]string{"id": "ghost"}); code != http.StatusNotFound {
		t.Fatalf("deregister unknown worker = %d, want 404", code)
	}

	for _, p := range ctl.Placements() {
		resp, err := http.Post(ctlSrv.URL+"/jobs/"+p.ID+"/cancel", "application/json", nil)
		if err == nil {
			resp.Body.Close()
		}
	}
}

// TestReadyzFlipsWhenLastWorkerDies: readiness is live per-request — it
// flips back to 503 whenever the last live worker is lost, whether by
// missing the liveness deadline or by a clean deregister, and recovers on
// re-registration.
func TestReadyzFlipsWhenLastWorkerDies(t *testing.T) {
	_, ctlSrv := startController(t, Config{
		LivenessDeadline: 150 * time.Millisecond,
		SweepInterval:    15 * time.Millisecond,
	})
	readyz := func() int {
		resp, err := http.Get(ctlSrv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	waitReadyz := func(want int, why string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if readyz() == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("readyz never became %d (%s)", want, why)
	}

	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no workers = %d, want 503", got)
	}
	registerWorker(t, ctlSrv.URL, "w1", "http://127.0.0.1:0")
	if got := readyz(); got != http.StatusOK {
		t.Fatalf("readyz with a live worker = %d, want 200", got)
	}
	// The worker never heartbeats; the sweep expires it and readiness must
	// flip back.
	waitReadyz(http.StatusServiceUnavailable, "last worker missed the liveness deadline")

	// Resurrection by re-registration restores readiness...
	registerWorker(t, ctlSrv.URL, "w1", "http://127.0.0.1:0")
	if got := readyz(); got != http.StatusOK {
		t.Fatalf("readyz after re-registration = %d, want 200", got)
	}
	// ...and a clean deregister of the last worker drops it immediately.
	if code, _ := postFleet(t, ctlSrv.URL+"/fleet/deregister", map[string]string{"id": "w1"}); code != http.StatusOK {
		t.Fatalf("deregister = %d", code)
	}
	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz after last worker deregistered = %d, want 503", got)
	}
}
