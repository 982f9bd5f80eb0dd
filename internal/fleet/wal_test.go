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
	"sync"
	"testing"
	"time"

	"nestdiff/internal/durable"
	"nestdiff/internal/service"
)

// openWAL opens a placement WAL the way the controller does.
var openWAL = durable.Open[walRecord]

func walTestRecords() []walRecord {
	cfgJSON, _ := json.Marshal(fleetJob(20))
	return []walRecord{
		{Op: walOpRegister, Worker: "w1", URL: "http://w1"},
		{Op: walOpPlace, JobID: "f-1", Worker: "w1", Epoch: 1, Cfg: cfgJSON},
		{Op: walOpAdopt, JobID: "f-1", Worker: "w2", Epoch: 2},
		{Op: walOpState, JobID: "f-1", State: "done"},
	}
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "placements.wal")
	w, records, truncated, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 || truncated != 0 {
		t.Fatalf("fresh wal replayed %d records, %d truncated", len(records), truncated)
	}
	want := walTestRecords()
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, got, truncated, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if truncated != 0 {
		t.Fatalf("clean wal reported %d truncations", truncated)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestWALTornTailTruncatedAndRepaired: the final line of a kill -9 may be
// torn mid-write. Opening the journal must replay the good prefix, count
// the repair, physically truncate the file, and keep appending.
func TestWALTornTailTruncatedAndRepaired(t *testing.T) {
	path := filepath.Join(t.TempDir(), "placements.wal")
	w, _, _, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	want := walTestRecords()
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	goodLen := int64(0)
	if fi, err := os.Stat(path); err == nil {
		goodLen = fi.Size()
	}

	// Tear the tail: half a line, no newline, bad checksum.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"crc":12345,"rec":{"op":"adop`)
	f.Close()

	w2, got, truncated, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if truncated != 1 {
		t.Fatalf("truncated = %d, want 1", truncated)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("good prefix lost in repair:\ngot  %+v\nwant %+v", got, want)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != goodLen {
		t.Fatalf("file not truncated back to the good prefix: size %v, want %d", fi.Size(), goodLen)
	}

	// The repaired journal accepts appends and replays them.
	extra := walRecord{Op: walOpDead, Worker: "w1"}
	if err := w2.Append(extra); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, got, truncated, err = openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if truncated != 0 || !reflect.DeepEqual(got, append(append([]walRecord{}, want...), extra)) {
		t.Fatalf("post-repair append not replayed: truncated %d, records %+v", truncated, got)
	}
}

// TestWALMidFileCorruptionPoisonsTail: a bad line invalidates everything
// after it — later records may describe state built on the lost mutation,
// so only the clean prefix is trusted, and open cuts the file back to it.
func TestWALMidFileCorruptionPoisonsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "placements.wal")
	w, _, _, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := walTestRecords()
	w.Append(recs[0])
	w.Close()
	prefix, _ := os.ReadFile(path)
	// A structurally valid line after the corruption must NOT be trusted.
	data := append(append([]byte{}, prefix...), "not json at all\n"...)
	data = append(data, walFrozenLines[2]...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w, got, truncated, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(got) != 1 || got[0].Op != walOpRegister {
		t.Fatalf("replay past corruption: %+v", got)
	}
	if truncated != 2 {
		t.Fatalf("truncated = %d, want 2 (the bad line and the orphaned good one)", truncated)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(prefix)) {
		t.Fatalf("file not cut to the good prefix: %v, want %d bytes", fi.Size(), len(prefix))
	}
}

// walFrozenRecords and walFrozenLines pin the on-disk WAL format: the
// lines are the bytes the journal wrote for these records before it moved
// onto internal/durable, and a controller must keep writing (and reading)
// exactly them.
var walFrozenRecords = []walRecord{
	{Op: walOpRegister, Worker: "w1", URL: "http://127.0.0.1:18081"},
	{Op: walOpPlace, JobID: "f-1", Worker: "w1", Epoch: 1, Cfg: json.RawMessage(`{"cores":256,"strategy":"diffusion","note":"<a&b>"}`)},
	{Op: walOpEpoch, JobID: "f-1", Epoch: 7},
	{Op: walOpCfg, JobID: "f-1", Cfg: json.RawMessage(`{ "cores" : 18 }`)},
	{Op: walOpState, JobID: "f-1", State: "done"},
	{Op: walOpDead, Worker: "w\u2028<1>"},
}

var walFrozenLines = []string{
	`{"crc":4280652024,"rec":{"op":"register","worker":"w1","url":"http://127.0.0.1:18081"}}` + "\n",
	`{"crc":3886368898,"rec":{"op":"place","job":"f-1","worker":"w1","epoch":1,"cfg":{"cores":256,"strategy":"diffusion","note":"\u003ca\u0026b\u003e"}}}` + "\n",
	`{"crc":1447054254,"rec":{"op":"epoch","job":"f-1","epoch":7}}` + "\n",
	`{"crc":2390975111,"rec":{"op":"cfg","job":"f-1","cfg":{"cores":18}}}` + "\n",
	`{"crc":483952643,"rec":{"op":"state","job":"f-1","state":"done"}}` + "\n",
	`{"crc":691009337,"rec":{"op":"dead","worker":"w\u2028\u003c1\u003e"}}` + "\n",
}

// TestWALFrameBytesFrozen: appended and compacted journals are byte-equal
// to the frozen lines, and the frozen lines replay to the records.
func TestWALFrameBytesFrozen(t *testing.T) {
	want := strings.Join(walFrozenLines, "")
	path := filepath.Join(t.TempDir(), "placements.wal")
	w, _, _, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range walFrozenRecords {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := os.ReadFile(path); string(got) != want {
		t.Fatalf("appended journal bytes changed:\ngot  %q\nwant %q", got, want)
	}
	if err := w.Compact(walFrozenRecords); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if got, _ := os.ReadFile(path); string(got) != want {
		t.Fatalf("compacted journal bytes changed:\ngot  %q\nwant %q", got, want)
	}
	w, got, truncated, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if truncated != 0 || len(got) != len(walFrozenRecords) {
		t.Fatalf("frozen journal replayed %d records, %d truncated", len(got), truncated)
	}
	for i, rec := range got {
		wantRec := walFrozenRecords[i]
		if rec.Op != wantRec.Op || rec.JobID != wantRec.JobID || rec.Worker != wantRec.Worker ||
			rec.URL != wantRec.URL || rec.Epoch != wantRec.Epoch || rec.State != wantRec.State {
			t.Fatalf("record %d = %+v, want %+v", i, rec, wantRec)
		}
	}
}

// TestWALCorruptTailFixtureReplay replays the pre-baked corrupt-tail
// journal checked into testdata — a stable regression artifact for the CI
// partition-chaos job, independent of the writer code that produced it.
func TestWALCorruptTailFixtureReplay(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "corrupt-tail.wal"))
	if err != nil {
		t.Fatal(err)
	}
	// Copy into a temp dir: openWAL repairs in place and must never modify
	// the checked-in fixture.
	path := filepath.Join(t.TempDir(), "placements.wal")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	w, records, truncated, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if truncated != 1 {
		t.Fatalf("fixture truncations = %d, want 1", truncated)
	}
	if len(records) != 3 {
		t.Fatalf("fixture replayed %d records, want 3: %+v", len(records), records)
	}
	wantOps := []string{walOpRegister, walOpPlace, walOpState}
	for i, rec := range records {
		if rec.Op != wantOps[i] {
			t.Fatalf("fixture record %d op = %q, want %q", i, rec.Op, wantOps[i])
		}
	}
	if records[1].JobID != "f-1" || records[1].Worker != "w1" || records[1].Epoch != 1 {
		t.Fatalf("fixture place record = %+v", records[1])
	}
}

// TestControllerRestartServesSamePlacementTable is the durability
// acceptance drill: a controller with -state-dir is killed (with a torn
// final journal line, as kill -9 leaves behind) and a fresh controller on
// the same state dir must replay the WAL and serve the identical placement
// table — same IDs, workers, epochs, states and adoption counts — with the
// replayed workers live (no re-registration storm, no spurious adoptions)
// and the job-ID sequence continuing where it left off.
func TestControllerRestartServesSamePlacementTable(t *testing.T) {
	stateDir := t.TempDir()
	mkCfg := func() Config {
		return Config{
			LivenessDeadline: time.Minute,
			SweepInterval:    20 * time.Millisecond,
			StateDir:         stateDir,
		}
	}

	ctlA := NewController(mkCfg())
	srvA := httptest.NewServer(ctlA.Handler())
	w1 := startWorker(t, srvA, "w1", service.SchedulerConfig{Workers: 2})
	w2 := startWorker(t, srvA, "w2", service.SchedulerConfig{Workers: 2})
	_, _ = w1, w2

	const jobs = 4
	for i := 0; i < jobs; i++ {
		resp := submitJob(t, srvA.URL, fleetJob(20))
		if resp.StatusCode != 201 {
			t.Fatalf("submit %d = %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	for i := 1; i <= jobs; i++ {
		pollFleet(t, srvA.URL, fmt.Sprintf("f-%d", i), "done", func(sn service.Snapshot) bool {
			return sn.State == service.StateDone
		})
	}
	// Fold (and journal) the terminal states, then capture the table.
	ctlA.Sweep()
	before := ctlA.Placements()
	beforeJSON, _ := json.Marshal(before)

	// Kill the controller. Every record was fsynced on append, so closing
	// abruptly loses nothing; the torn garbage appended below is exactly
	// the half-written final line a kill -9 leaves.
	srvA.Close()
	ctlA.Close()
	walPath := filepath.Join(stateDir, "placements.wal")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"crc":999,"rec":{"op":"pla`)
	f.Close()

	ctlB := NewController(mkCfg())
	defer ctlB.Close()
	srvB := httptest.NewServer(ctlB.Handler())
	defer srvB.Close()

	after := ctlB.Placements()
	afterJSON, _ := json.Marshal(after)
	if string(beforeJSON) != string(afterJSON) {
		t.Fatalf("placement table diverged across restart:\nbefore %s\nafter  %s", beforeJSON, afterJSON)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("replayed placements differ structurally:\nbefore %+v\nafter  %+v", before, after)
	}
	if got := ctlB.Metrics().Value("nestctl_fleet_wal_truncations_total"); got != 1 {
		t.Fatalf("wal truncations after torn tail = %d, want 1", got)
	}
	// Membership replayed live: both workers are present without anyone
	// re-registering, and no adoption fired for jobs whose owners live.
	live := ctlB.reg.live()
	if len(live) != 2 {
		t.Fatalf("replayed live workers = %+v, want 2", live)
	}
	if got := ctlB.Metrics().Value("nestctl_fleet_adoptions_total"); got != 0 {
		t.Fatalf("restart caused %d adoptions, want 0", got)
	}

	// The restarted controller keeps serving: the job sequence continues
	// (no ID reuse) and placement works against the replayed membership.
	resp := submitJob(t, srvB.URL, fleetJob(10))
	if resp.StatusCode != 201 {
		t.Fatalf("post-restart submit = %d", resp.StatusCode)
	}
	snap := decodeSnap(t, resp)
	if snap.ID != "f-5" {
		t.Fatalf("post-restart job ID = %q, want f-5 (sequence replayed)", snap.ID)
	}
	pollFleet(t, srvB.URL, snap.ID, "done after restart", func(sn service.Snapshot) bool {
		return sn.State == service.StateDone
	})
}

// TestWALCompactionKeepsConcurrentPlacements races placements against WAL
// compactions. A compaction that snapshots the table after a place record
// was appended but before the placement was inserted must not squash that
// record: a controller restarted from the WAL finds every job that was
// placed.
func TestWALCompactionKeepsConcurrentPlacements(t *testing.T) {
	stateDir := t.TempDir()
	cfg := Config{LivenessDeadline: time.Hour, SweepInterval: time.Hour, StateDir: stateDir}
	// A worker that accepts every placement at once and echoes its ID.
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var msg struct {
			ID string `json:"id"`
		}
		json.NewDecoder(r.Body).Decode(&msg)
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(service.Snapshot{ID: msg.ID, State: service.StateQueued})
	}))
	defer worker.Close()

	ctl := NewController(cfg)
	ctl.reg.upsert("w1", worker.URL, time.Now())
	ctl.journal(walRecord{Op: walOpRegister, Worker: "w1", URL: worker.URL})

	const placers, perPlacer = 8, 40
	var (
		mu     sync.Mutex
		placed []string
		wg     sync.WaitGroup
	)
	stop := make(chan struct{})
	compactions := 0
	compacted := make(chan struct{})
	go func() {
		defer close(compacted)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := ctl.CompactWAL(); err != nil {
				t.Error(err)
				return
			}
			compactions++
		}
	}()
	for range placers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perPlacer {
				snap, _, err := ctl.place(fleetJob(10))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				placed = append(placed, snap.ID)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-compacted
	ctl.Close()

	restarted := NewController(cfg)
	defer restarted.Close()
	have := map[string]bool{}
	for _, p := range restarted.Placements() {
		have[p.ID] = true
	}
	var lost []string
	for _, id := range placed {
		if !have[id] {
			lost = append(lost, id)
		}
	}
	if len(lost) > 0 {
		t.Fatalf("%d of %d placed jobs lost across a restart after %d compactions: %v",
			len(lost), len(placed), compactions, lost)
	}
}
