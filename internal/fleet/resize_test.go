package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nestdiff/internal/elastic"
	"nestdiff/internal/service"
	"nestdiff/internal/wrfsim"
)

// elasticFleetJob is the fleet analogue of the service suite's resize
// workload: a distributed scratch-strategy cells job, throttled so resize
// requests land mid-run.
func elasticFleetJob(steps int) service.JobConfig {
	cfg := fleetJob(steps)
	cfg.Cores = 8
	cfg.Strategy = "scratch"
	cfg.Distributed = true
	cfg.StepDelayMS = 2
	cfg.AutoCheckpointSteps = 10
	return cfg
}

// postResize issues a resize through the controller and returns the
// response (caller closes the body).
func postResize(t *testing.T, ctlURL, id string, procs int) *http.Response {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/jobs/%s/resize?procs=%d", ctlURL, id, procs), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// findPlacement returns the controller's placement row for id.
func findPlacement(t *testing.T, ctl *Controller, id string) placement {
	t.Helper()
	for _, p := range ctl.Placements() {
		if p.ID == id {
			return p
		}
	}
	t.Fatalf("no placement for %s in %+v", id, ctl.Placements())
	return placement{}
}

// TestFleetResizeRoundTrip is the control-plane acceptance drill: a
// resize POSTed to nestctl proxies to the owning worker, applies at a
// step boundary, flows back into the placement config as a journaled cfg
// record (never a re-place — the epoch must not move), and survives a
// controller restart.
func TestFleetResizeRoundTrip(t *testing.T) {
	stateDir := t.TempDir()
	mkCfg := func() Config {
		return Config{
			LivenessDeadline: time.Minute,
			SweepInterval:    20 * time.Millisecond,
			StateDir:         stateDir,
		}
	}
	ctl := NewController(mkCfg())
	srv := httptest.NewServer(ctl.Handler())
	startWorker(t, srv, "w1", service.SchedulerConfig{Workers: 1})

	resp := submitJob(t, srv.URL, elasticFleetJob(80))
	if resp.StatusCode != 201 {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	snap := decodeSnap(t, resp)
	pollFleet(t, srv.URL, snap.ID, "mid-run", func(sn service.Snapshot) bool {
		return sn.State == service.StateRunning && sn.Step >= 10
	})
	epochBefore := findPlacement(t, ctl, snap.ID).Epoch

	// Malformed and unknown-job resizes surface through the proxy.
	if r := postResize(t, srv.URL, snap.ID, -3); r.StatusCode != 400 {
		t.Fatalf("negative procs returned %d, want 400", r.StatusCode)
	} else {
		r.Body.Close()
	}
	if r, err := http.Post(srv.URL+"/jobs/nope/resize?procs=8", "application/json", nil); err != nil {
		t.Fatal(err)
	} else if r.StatusCode != 404 {
		t.Fatalf("unknown job resize returned %d, want 404", r.StatusCode)
	} else {
		r.Body.Close()
	}

	r := postResize(t, srv.URL, snap.ID, 18)
	if r.StatusCode != 200 {
		t.Fatalf("resize returned %d, want 200", r.StatusCode)
	}
	if got := r.Header.Get("X-Fleet-Worker"); got != "w1" {
		t.Fatalf("resize proxied via %q, want w1", got)
	}
	r.Body.Close()

	pollFleet(t, srv.URL, snap.ID, "resize applied", func(sn service.Snapshot) bool {
		return sn.Cores == 18
	})
	// The new size reaches the placement table via reconcileCores (the
	// poll's proxy replies and the sweep both fold it).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if p := findPlacement(t, ctl, snap.ID); p.cfg.Cores == 18 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("placement cfg never reconciled to 18 cores: %+v", findPlacement(t, ctl, snap.ID))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := findPlacement(t, ctl, snap.ID).Epoch; got != epochBefore {
		t.Fatalf("resize moved the placement epoch %d -> %d; a cfg change must not re-fence", epochBefore, got)
	}
	if got := ctl.Metrics().Value("nestctl_fleet_resizes_observed_total"); got < 1 {
		t.Fatalf("resizes_observed = %d, want >= 1", got)
	}

	final := pollFleet(t, srv.URL, snap.ID, "done", func(sn service.Snapshot) bool {
		return sn.State.Terminal()
	})
	if final.State != service.StateDone || final.Cores != 18 {
		t.Fatalf("job finished %s with %d cores, want done with 18", final.State, final.Cores)
	}
	ctl.Sweep()
	before := findPlacement(t, ctl, snap.ID)

	// Restart the controller: the journaled cfg record must replay the
	// placement at its resized core count under the original epoch.
	srv.Close()
	ctl.Close()
	ctl2 := NewController(mkCfg())
	defer ctl2.Close()
	after := findPlacement(t, ctl2, snap.ID)
	if after.cfg.Cores != 18 {
		t.Fatalf("replayed placement at %d cores, want the resized 18", after.cfg.Cores)
	}
	if after.Epoch != before.Epoch || after.State != before.State {
		t.Fatalf("replayed placement %+v diverged from %+v", after, before)
	}
}

// TestFleetAutoscalerGrowsAndShrinks runs the wired-up autoscaler against
// real workers: a nest-heavy job grows, a nest-free job shrinks, the
// fleet never exceeds its processor budget, and the controller counters
// see both directions.
func TestFleetAutoscalerGrowsAndShrinks(t *testing.T) {
	ctl, srv := startController(t, Config{})
	startWorker(t, srv, "w1", service.SchedulerConfig{Workers: 2})

	// Both jobs start inside the profiled processor range (16..1024):
	// below it Predict clamps, the modelled saving vanishes, and a grow
	// can never pay for itself.
	hotCfg := elasticFleetJob(4000)
	hotCfg.Cores = 16
	hotCfg.StepDelayMS = 5
	hotCfg.Cells = []wrfsim.Cell{
		{X: 20, Y: 18, Radius: 5, Peak: 2.5, Life: 6 * 3600},
		{X: 70, Y: 50, Radius: 4, Peak: 2.0, Life: 6 * 3600},
	}
	idleCfg := elasticFleetJob(4000)
	idleCfg.Cores = 64
	idleCfg.StepDelayMS = 5
	// One short-lived storm: its nest is gone before the autoscaler
	// starts, leaving a provably idle job.
	idleCfg.Cells = []wrfsim.Cell{{X: 48, Y: 30, Radius: 4, Peak: 2.2, Life: 600}}

	hot := decodeSnap(t, submitJob(t, srv.URL, hotCfg))
	idle := decodeSnap(t, submitJob(t, srv.URL, idleCfg))
	pollFleet(t, srv.URL, hot.ID, "hot job nested", func(sn service.Snapshot) bool {
		return sn.State == service.StateRunning && len(sn.ActiveNests) >= 1
	})
	pollFleet(t, srv.URL, idle.ID, "idle job nest-free", func(sn service.Snapshot) bool {
		return sn.State == service.StateRunning && sn.Step >= 15 && len(sn.ActiveNests) == 0
	})

	const budget = 128
	if err := ctl.EnableAutoscaler(elastic.AutoscalerConfig{
		Budget:   budget,
		Interval: 25 * time.Millisecond,
		Cooldown: 150 * time.Millisecond,
		HotNests: 1,
		MinProcs: 16,
		// Direction, not magnitude, decides: any predicted speedup pays.
		GrowMargin:        1e-9,
		RedistBytesPerSec: 1e18,
	}); err != nil {
		t.Fatal(err)
	}

	var sawGrown, sawShrunk bool
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		hotSnap, err1 := fetchSnap(srv.URL, hot.ID)
		idleSnap, err2 := fetchSnap(srv.URL, idle.ID)
		if err1 == nil && err2 == nil {
			if total := hotSnap.Cores + idleSnap.Cores; total > budget {
				t.Fatalf("fleet uses %d cores over the %d budget", total, budget)
			}
			if hotSnap.Cores > 16 {
				sawGrown = true
			}
			if idleSnap.Cores < 64 {
				sawShrunk = true
				if idleSnap.Cores < 16 {
					t.Fatalf("idle job shrunk below the 16-proc floor: %d", idleSnap.Cores)
				}
			}
		}
		grows, shrinks := ctl.Metrics().Value("nestctl_fleet_autoscale_grows_total"), ctl.Metrics().Value("nestctl_fleet_autoscale_shrinks_total")
		if sawGrown && sawShrunk && grows >= 1 && shrinks >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	grows, shrinks := ctl.Metrics().Value("nestctl_fleet_autoscale_grows_total"), ctl.Metrics().Value("nestctl_fleet_autoscale_shrinks_total")
	if !sawGrown || grows < 1 {
		t.Fatalf("hot job never grew (grows=%d, sawGrown=%v)", grows, sawGrown)
	}
	if !sawShrunk || shrinks < 1 {
		t.Fatalf("idle job never shrank (shrinks=%d, sawShrunk=%v)", shrinks, sawShrunk)
	}
	if got := ctl.Metrics().Value("nestctl_fleet_autoscale_resizes_total"); got < 2 {
		t.Fatalf("autoscale_resizes = %d, want >= 2", got)
	}

	for _, id := range []string{hot.ID, idle.ID} {
		resp, err := http.Post(srv.URL+"/jobs/"+id+"/cancel", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		pollFleet(t, srv.URL, id, "cancelled", func(sn service.Snapshot) bool {
			return sn.State.Terminal()
		})
	}
}

// fetchSnap reads one job snapshot through the controller without the
// poll loop's fatal timeout (the autoscaler soak samples opportunistically).
func fetchSnap(ctlURL, id string) (service.Snapshot, error) {
	resp, err := http.Get(ctlURL + "/jobs/" + id)
	if err != nil {
		return service.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.Snapshot{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	var snap service.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return service.Snapshot{}, err
	}
	return snap, nil
}

// countWALLines returns the number of journal lines on disk.
func countWALLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), "\n")
}

// TestFleetWALCompactionAndCrashRestart drives the compaction trigger
// organically — a WAL fattened past the append floor by placements,
// queued-job reprices and terminal states — then kills the controller
// the way a kill -9 during the NEXT compaction would (stale .tmp beside
// the journal, torn final line) and requires the restarted controller to
// clear the debris and serve the identical placement table.
func TestFleetWALCompactionAndCrashRestart(t *testing.T) {
	stateDir := t.TempDir()
	walPath := filepath.Join(stateDir, "placements.wal")
	mkCfg := func() Config {
		return Config{
			LivenessDeadline: time.Minute,
			// Sweeps only on demand: the test controls exactly when the
			// compaction check runs.
			SweepInterval: time.Hour,
			StateDir:      stateDir,
		}
	}
	ctl := NewController(mkCfg())
	srv := httptest.NewServer(ctl.Handler())
	startWorker(t, srv, "w1", service.SchedulerConfig{Workers: 1})

	// A long blocker pins the single worker slot so the batch stays
	// queued while it is repriced.
	blockerCfg := elasticFleetJob(4000)
	blockerCfg.StepDelayMS = 5
	blocker := decodeSnap(t, submitJob(t, srv.URL, blockerCfg))

	const batch = 16
	ids := make([]string, 0, batch)
	for i := 0; i < batch; i++ {
		cfg := fleetJob(6)
		cfg.Cores = 32
		ids = append(ids, decodeSnap(t, submitJob(t, srv.URL, cfg)).ID)
	}
	// Two reprices per queued job: each is a journaled cfg record that a
	// snapshot makes redundant (only the final config survives).
	for _, id := range ids {
		for _, procs := range []int{48, 24} {
			r := postResize(t, srv.URL, id, procs)
			if r.StatusCode != 200 {
				t.Fatalf("reprice of queued %s to %d = %d", id, procs, r.StatusCode)
			}
			r.Body.Close()
		}
	}
	if resp, err := http.Post(srv.URL+"/jobs/"+blocker.ID+"/cancel", "application/json", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	for _, id := range ids {
		final := pollFleet(t, srv.URL, id, "done", func(sn service.Snapshot) bool {
			return sn.State.Terminal()
		})
		if final.State != service.StateDone || final.Cores != 24 {
			t.Fatalf("job %s finished %s with %d cores, want done with 24", id, final.State, final.Cores)
		}
	}
	pollFleet(t, srv.URL, blocker.ID, "blocker cancelled", func(sn service.Snapshot) bool {
		return sn.State.Terminal()
	})

	// 1 register + 17 places + 32 cfg reprices + 17 terminal states ≥ the
	// 64-append floor, and every placement is terminal: the sweep's
	// compaction check must fire.
	linesBefore := countWALLines(t, walPath)
	ctl.Sweep()
	if got := ctl.Metrics().Value("nestctl_fleet_wal_compactions_total"); got != 1 {
		t.Fatalf("wal_compactions = %d after a terminal-dominated sweep, want 1", got)
	}
	linesAfter := countWALLines(t, walPath)
	if linesAfter >= linesBefore {
		t.Fatalf("compaction did not shrink the WAL: %d lines -> %d", linesBefore, linesAfter)
	}
	// The compacted journal still appends: a sweep with nothing to do
	// must not compact again (the append counter was reset).
	ctl.Sweep()
	if got := ctl.Metrics().Value("nestctl_fleet_wal_compactions_total"); got != 1 {
		t.Fatalf("idle sweep re-compacted: wal_compactions = %d", got)
	}
	before := ctl.Placements()

	// Kill -9 mid-compaction: the process dies after writing a partial
	// snapshot .tmp but before the rename, and its final append is torn.
	srv.Close()
	ctl.Close()
	staleTmp := walPath + ".tmp-123456" // durable.WriteFileAtomic's temp pattern
	if err := os.WriteFile(staleTmp, []byte(`{"crc":1,"rec":{"op":"pla`), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"crc":999,"rec":{"op":"sta`)
	f.Close()

	ctl2 := NewController(mkCfg())
	defer ctl2.Close()
	if _, err := os.Stat(staleTmp); !os.IsNotExist(err) {
		t.Fatalf("stale compaction .tmp survived restart (err=%v)", err)
	}
	if got := ctl2.Metrics().Value("nestctl_fleet_wal_truncations_total"); got != 1 {
		t.Fatalf("wal truncations after torn tail = %d, want 1", got)
	}
	after := ctl2.Placements()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("placement table diverged across compaction + crash restart:\nbefore %+v\nafter  %+v", before, after)
	}
	// Job sequencing survives compaction: the snapshot's place records
	// carry the IDs the sequence counter is rebuilt from.
	srv2 := httptest.NewServer(ctl2.Handler())
	defer srv2.Close()
	startWorker(t, srv2, "w2", service.SchedulerConfig{Workers: 1})
	resp := submitJob(t, srv2.URL, fleetJob(6))
	if resp.StatusCode != 201 {
		t.Fatalf("post-restart submit = %d", resp.StatusCode)
	}
	snap := decodeSnap(t, resp)
	if snap.ID != fmt.Sprintf("f-%d", batch+2) {
		t.Fatalf("post-restart job ID = %q, want f-%d (sequence replayed from the snapshot)", snap.ID, batch+2)
	}
	pollFleet(t, srv2.URL, snap.ID, "done after restart", func(sn service.Snapshot) bool {
		return sn.State == service.StateDone
	})
}
