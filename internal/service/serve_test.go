package service

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nestdiff/internal/obs"
	"nestdiff/internal/serve"
)

// phaseCount is how many times a tracer timed the named phase.
func phaseCount(tr *obs.Tracer, name string) int64 {
	for _, ps := range tr.Summaries() {
		if ps.Kind == obs.KindPhase && ps.Name == name {
			return ps.Count
		}
	}
	return 0
}

// TestServeGoldenSnapshotEquivalence is the golden test of the serving
// tier's zero-interference claim: a run hammered by concurrent snapshot
// readers for its whole duration produces bit-identical final fields and
// identical adaptation events to a run with no serving attached at all.
// The throttled case parks the served run between steps the way runJob
// does, so reads are also answered by materializations inside the wait
// (and drop the tile cache's older steps).
func TestServeGoldenSnapshotEquivalence(t *testing.T) {
	t.Run("unthrottled", func(t *testing.T) { goldenSnapshotEquivalence(t, 0) })
	t.Run("throttled", func(t *testing.T) { goldenSnapshotEquivalence(t, 2*time.Millisecond) })
}

func goldenSnapshotEquivalence(t *testing.T, delay time.Duration) {
	cfg := smallJob(60).withDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	plain, err := newRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	served, err := newRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{ID: "golden", Cfg: cfg, state: StateRunning, pub: serve.NewPublisher()}
	sink := &jobSink{j: j}
	served.pipe.SetSnapshotSink(sink)
	cache := serve.NewCache(1 << 22)
	var tr *obs.Tracer
	if delay > 0 {
		sink.tiles = cache
		tr = obs.New(obs.Options{})
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := j.pub.Acquire(2 * time.Second)
				if err != nil {
					continue
				}
				f := snap.Vars["qcloud"]
				if _, err := serve.BuildResponse(cache, "golden", "qcloud", snap, f.Bounds()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for step := 0; step < cfg.Steps; step++ {
		if err := plain.pipe.Step(); err != nil {
			t.Fatal(err)
		}
		if err := served.pipe.Step(); err != nil {
			t.Fatal(err)
		}
		if delay > 0 {
			sink.wait(served.pipe, delay, tr)
		}
	}
	close(stop)
	readers.Wait()
	if delay > 0 && phaseCount(tr, "publish") == 0 {
		t.Fatal("no read was answered inside the inter-step wait")
	}

	if served.pipe.StepCount() != plain.pipe.StepCount() {
		t.Fatalf("step counts diverged: %d vs %d", served.pipe.StepCount(), plain.pipe.StepCount())
	}
	want := materializeVars(plain.pipe)
	got := materializeVars(served.pipe)
	if len(want) != len(got) {
		t.Fatalf("var sets diverged: %d vs %d", len(want), len(got))
	}
	for name, wf := range want {
		gf, ok := got[name]
		if !ok {
			t.Fatalf("served run lost var %q", name)
		}
		if wf.NX != gf.NX || wf.NY != gf.NY {
			t.Fatalf("var %q: %dx%d vs %dx%d", name, wf.NX, wf.NY, gf.NX, gf.NY)
		}
		for i := range wf.Data {
			if math.Float64bits(wf.Data[i]) != math.Float64bits(gf.Data[i]) {
				t.Fatalf("var %q cell %d: %v vs %v — serving perturbed the simulation",
					name, i, wf.Data[i], gf.Data[i])
			}
		}
	}
	if !reflect.DeepEqual(plain.pipe.Events(), served.pipe.Events()) {
		t.Fatal("adaptation event streams diverged between served and plain runs")
	}
}

// TestServeReadFieldRunningJob reads the field of a live job through the
// scheduler API and checks the envelope against the job's geometry.
func TestServeReadFieldRunningJob(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	cfg := smallJob(5000)
	cfg.StepDelayMS = 2
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, snap.ID, "running", func(sn Snapshot) bool { return sn.State == StateRunning && sn.Step > 0 })

	body, err := s.ReadField(snap.ID, "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := serve.DecodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.GridNX != cfg.NX || resp.GridNY != cfg.NY {
		t.Fatalf("grid %dx%d, want %dx%d", resp.GridNX, resp.GridNY, cfg.NX, cfg.NY)
	}
	if resp.Field.NX != cfg.NX || resp.Field.NY != cfg.NY {
		t.Fatalf("full-domain field %dx%d", resp.Field.NX, resp.Field.NY)
	}
	if resp.Step < 1 {
		t.Fatalf("snapshot step %d", resp.Step)
	}
	// A rect re-read of the same snapshot step must hit the cache.
	before := s.TileCache().Stats()
	if _, err := s.ReadField(snap.ID, "qcloud", "0,0,64,64", strconv.Itoa(resp.Step)); err != nil {
		// The running job may have stepped past resp.Step; only a stale-step
		// rejection is acceptable here.
		if !strings.Contains(err.Error(), "latest") {
			t.Fatal(err)
		}
	} else if after := s.TileCache().Stats(); after.Hits <= before.Hits {
		t.Fatalf("rect re-read hit nothing: %+v -> %+v", before, after)
	}
	if err := s.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
}

// TestServeThrottledReadServedAtParkedBoundary reads a job throttled to
// one step per 2 s right after each new step: the worker, parked between
// steps, publishes the boundary it sits at, so the read returns at once
// with the step Get reported instead of waiting out the delay.
func TestServeThrottledReadServedAtParkedBoundary(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	cfg := smallJob(5000)
	cfg.StepDelayMS = 2000
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	// The first read finds no snapshot at all; the second finds a stale one.
	for i := 0; i < 2; i++ {
		at := waitFor(t, s, snap.ID, "a new step", func(sn Snapshot) bool { return sn.Step > last }).Step
		start := time.Now()
		body, err := s.ReadField(snap.ID, "", "", "")
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := serve.DecodeResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed >= 500*time.Millisecond {
			t.Fatalf("read %d took %s: it waited for the next step instead of the parked one", i, elapsed)
		}
		if resp.Step != at {
			t.Fatalf("read %d returned step %d, want the parked step %d", i, resp.Step, at)
		}
		last = at
	}
	if err := s.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
}

// TestServeReadAfterPauseSeesPausedStep reads a job once, lets it run on,
// pauses it, and reads again: the paused job serves the step it parked
// at, not the older step the first read materialized.
func TestServeReadAfterPauseSeesPausedStep(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	cfg := smallJob(5000)
	cfg.StepDelayMS = 5
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, snap.ID, "running", func(sn Snapshot) bool { return sn.State == StateRunning && sn.Step > 0 })
	read := func() int {
		t.Helper()
		body, err := s.ReadField(snap.ID, "", "", "")
		if err != nil {
			t.Fatal(err)
		}
		resp, err := serve.DecodeResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Step
	}
	first := read()
	waitFor(t, s, snap.ID, "steps past the read", func(sn Snapshot) bool { return sn.Step > first+3 })
	if err := s.Pause(snap.ID); err != nil {
		t.Fatal(err)
	}
	paused := waitFor(t, s, snap.ID, "paused", func(sn Snapshot) bool { return sn.State == StatePaused })
	if got := read(); got != paused.Step {
		t.Fatalf("paused job read returned step %d (first read %d), want the paused step %d", got, first, paused.Step)
	}
}

// TestServeTileCacheKeepsOneStepOfThrottledJob reads a throttled job at
// 50 successive steps: each published step drops the older steps'
// tiles, so the cache ends holding exactly one step's entries.
func TestServeTileCacheKeepsOneStepOfThrottledJob(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	cfg := smallJob(5000)
	cfg.StepDelayMS = 10
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	for i := 0; i < 50; i++ {
		waitFor(t, s, snap.ID, "a new step", func(sn Snapshot) bool { return sn.Step > last })
		body, err := s.ReadField(snap.ID, "", "", "")
		if err != nil {
			t.Fatal(err)
		}
		resp, err := serve.DecodeResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Step <= last {
			t.Fatalf("read %d returned step %d, not past %d", i, resp.Step, last)
		}
		last = resp.Step
	}
	got := s.TileCache().Stats().Bytes
	// No read since the last one: the job published nothing more.
	j, err := s.lookup(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	cur := j.publisher().Current()
	if cur == nil || cur.Step != last {
		t.Fatalf("current snapshot %v, want step %d", cur, last)
	}
	one := serve.NewCache(0)
	if _, err := serve.BuildResponse(one, snap.ID, "qcloud", cur, cur.Vars["qcloud"].Bounds()); err != nil {
		t.Fatal(err)
	}
	if want := one.Stats().Bytes; got != want {
		t.Fatalf("tile cache holds %d bytes after 50 stepped reads, want one step's %d", got, want)
	}
	if err := s.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
}

// TestServeSnapshotResizeInteraction drives a live resize under readers:
// the pre-resize snapshot stays readable, the post-resize read carries a
// bumped epoch, and the cache refills rather than serving stale-epoch
// tiles.
func TestServeSnapshotResizeInteraction(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	cfg := smallJob(5000)
	cfg.StepDelayMS = 2
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, snap.ID, "running", func(sn Snapshot) bool { return sn.State == StateRunning && sn.Step > 0 })

	pre, err := s.ReadField(snap.ID, "qcloud", "", "")
	if err != nil {
		t.Fatal(err)
	}
	preResp, err := serve.DecodeResponse(pre)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent readers keep hammering the field across the resize; none
	// may ever see an error other than a transient stale-step/no-snapshot.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				body, err := s.ReadField(snap.ID, "qcloud", "", "")
				if err != nil {
					continue
				}
				if _, err := serve.DecodeResponse(body); err != nil {
					t.Errorf("mid-resize response corrupt: %v", err)
					return
				}
			}
		}()
	}

	if err := s.ResizeJob(snap.ID, 128); err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, snap.ID, "resize applied", func(sn Snapshot) bool { return sn.Cores == 128 })
	post, err := s.ReadField(snap.ID, "qcloud", "", "")
	close(stop)
	readers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	postResp, err := serve.DecodeResponse(post)
	if err != nil {
		t.Fatal(err)
	}
	if postResp.Epoch <= preResp.Epoch {
		t.Fatalf("post-resize epoch %d, want > pre-resize epoch %d", postResp.Epoch, preResp.Epoch)
	}
	if postResp.GridNX != cfg.NX || postResp.GridNY != cfg.NY {
		t.Fatalf("post-resize grid %dx%d", postResp.GridNX, postResp.GridNY)
	}
	// The pre-resize response we hold is still a complete, decodable
	// snapshot of the old epoch.
	if again, err := serve.DecodeResponse(pre); err != nil || again.Epoch != preResp.Epoch {
		t.Fatalf("pre-resize response no longer readable: %v", err)
	}
	if err := s.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
}

// TestServeFreshCheckpointExport exports a running job's checkpoint: the
// export must return a freshly cut boundary checkpoint promptly, and the
// step loop must keep advancing — the export never stalls it.
func TestServeFreshCheckpointExport(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	cfg := smallJob(5000)
	cfg.StepDelayMS = 5
	cfg.AutoCheckpointSteps = -1 // no periodic checkpoints: export demand is the only cut
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, snap.ID, "running", func(sn Snapshot) bool { return sn.State == StateRunning && sn.Step > 0 })

	start := time.Now()
	env, err := s.ExportCheckpoint(snap.ID)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > exportFreshWait+2*time.Second {
		t.Fatalf("export took %s", elapsed)
	}
	_, _, state, err := decodeJobCheckpoint(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) == 0 {
		t.Fatal("running-job export shipped no pipeline state (fresh boundary checkpoint was never cut)")
	}
	// The job keeps stepping after the export.
	at := waitFor(t, s, snap.ID, "progress after export", func(sn Snapshot) bool { return sn.Step > 0 }).Step
	waitFor(t, s, snap.ID, "further progress", func(sn Snapshot) bool { return sn.Step > at })
	if err := s.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
}

// TestServeFieldHTTPErrors exercises the field endpoint's edge cases over
// real HTTP: bad rects and vars are 400s, unknown jobs and unpublishable
// steps are 404s.
func TestServeFieldHTTPErrors(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	cfg := smallJob(5000)
	cfg.StepDelayMS = 2
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, snap.ID, "running", func(sn Snapshot) bool { return sn.State == StateRunning && sn.Step > 0 })

	get := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	base := srv.URL + "/jobs/"
	if code := get(base + snap.ID + "/field"); code != http.StatusOK {
		t.Fatalf("plain field read: %d", code)
	}
	for _, bad := range []struct {
		url  string
		want int
	}{
		{base + "nope/field", http.StatusNotFound},
		{base + snap.ID + "/field?rect=9999,0,10,10", http.StatusBadRequest}, // out of bounds
		{base + snap.ID + "/field?rect=0,0,0,10", http.StatusBadRequest},     // empty rect
		{base + snap.ID + "/field?rect=0,0,10", http.StatusBadRequest},       // malformed
		{base + snap.ID + "/field?var=nope", http.StatusBadRequest},
		{base + snap.ID + "/field?step=999999", http.StatusNotFound}, // never published
	} {
		if code := get(bad.url); code != bad.want {
			t.Fatalf("GET %s: %d, want %d", bad.url, code, bad.want)
		}
	}
	if err := s.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
}

// readSSEIDs reads n SSE frames off a live stream and returns their ids.
func readSSEIDs(t *testing.T, body *bufio.Reader, n int) []int64 {
	t.Helper()
	var ids []int64
	var haveID bool
	var cur int64
	for len(ids) < n {
		line, err := body.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended after %d frames: %v", len(ids), err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			id, perr := strconv.ParseInt(line[4:], 10, 64)
			if perr != nil {
				t.Fatalf("bad id line %q", line)
			}
			cur, haveID = id, true
		case line == "" && haveID:
			ids = append(ids, cur)
			haveID = false
		}
	}
	return ids
}

// TestServeSSEOverHTTPAPI streams a traced job's events end-to-end over
// the JSON API's /events endpoint, including a drop-and-resume without
// duplicates or skips, and checks untraced jobs reject the upgrade.
func TestServeSSEOverHTTPAPI(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	cfg := smallJob(5000)
	cfg.StepDelayMS = 2
	cfg.Trace = true
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := func(ctx context.Context, lastID string) (*http.Response, *bufio.Reader) {
		t.Helper()
		req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/jobs/"+snap.ID+"/events", nil)
		req.Header.Set("Accept", "text/event-stream")
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("SSE connect: %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("content type %q", ct)
		}
		return resp, bufio.NewReader(resp.Body)
	}

	ctx1, cancel1 := context.WithTimeout(context.Background(), 60*time.Second)
	resp1, body1 := stream(ctx1, "")
	ids := readSSEIDs(t, body1, 5)
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids not strictly increasing: %v", ids)
		}
	}
	last := ids[len(ids)-1]
	resp1.Body.Close()
	cancel1()

	// Resume exactly after the last seen id: no duplicates, no skips.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	resp2, body2 := stream(ctx2, fmt.Sprint(last))
	defer resp2.Body.Close()
	resumed := readSSEIDs(t, body2, 3)
	want := last + 1
	for _, id := range resumed {
		if id != want {
			t.Fatalf("resumed id %d, want %d (no dup, no skip)", id, want)
		}
		want++
	}

	// An untraced job has no ring to stream: the upgrade is a 400.
	plain, err := s.Submit(smallJob(40))
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("GET", srv.URL+"/jobs/"+plain.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("untraced SSE upgrade: %d, want 400", resp3.StatusCode)
	}
	if err := s.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
}

// TestServeTileCacheMetricsExposed checks the four tile-cache series
// appear on /metrics after a field read.
func TestServeTileCacheMetricsExposed(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	cfg := smallJob(5000)
	cfg.StepDelayMS = 2
	snap, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, snap.ID, "running", func(sn Snapshot) bool { return sn.State == StateRunning && sn.Step > 0 })
	if _, err := s.ReadField(snap.ID, "", "", ""); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, name := range []string{
		"nestserved_tile_cache_hits_total",
		"nestserved_tile_cache_misses_total",
		"nestserved_tile_cache_evictions_total",
		"nestserved_tile_cache_bytes_total",
	} {
		if !strings.Contains(text, name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}
	ts := s.TileCache().Stats()
	if ts.Misses == 0 || ts.Bytes == 0 {
		t.Fatalf("tile cache never filled: %+v", ts)
	}
	if err := s.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkStepLatencyUnderReadLoad measures step latency of a live run
// with zero readers and with 8 paced readers (~800 reads/s) hammering the
// snapshot + tile path — the interference number nestbench reports as
// serve.reader_lateness_p50_ms beside serve-fleet's ops_per_s.
func BenchmarkStepLatencyUnderReadLoad(b *testing.B) {
	for _, readers := range []int{0, 8} {
		b.Run(fmt.Sprintf("readers-%d", readers), func(b *testing.B) {
			cfg := smallJob(1 << 30).withDefaults()
			if err := cfg.Validate(); err != nil {
				b.Fatal(err)
			}
			r, err := newRun(cfg)
			if err != nil {
				b.Fatal(err)
			}
			j := &Job{ID: "bench", Cfg: cfg, state: StateRunning, pub: serve.NewPublisher()}
			r.pipe.SetSnapshotSink(&jobSink{j: j})
			cache := serve.NewCache(64 << 20)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < readers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						snap, err := j.pub.Acquire(100 * time.Millisecond)
						if err == nil {
							f := snap.Vars["qcloud"]
							if _, berr := serve.BuildResponse(cache, "bench", "qcloud", snap, f.Bounds()); berr != nil {
								b.Error(berr)
								return
							}
						}
						time.Sleep(10 * time.Millisecond)
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.pipe.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}
