package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"nestdiff/internal/scenario"
	"nestdiff/internal/serve"
	"nestdiff/internal/service"
)

// fleetDriver drives serve-fleet: the shipped nestctl and nestserved
// binaries on loopback, a closed-loop job submitter and an open-loop field
// reader. The generator is this process: one connection per loop, two in
// all, which is min(nproc, 4) on the 2-core host the sizes were chosen on.
type fleetDriver struct {
	spec   workloadSpec
	binDir string
}

// moduleRoot walks up from the working directory to the directory holding
// go.mod: the daemons are built from there, and bench/ lives there.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run nestbench from the repository")
		}
		dir = parent
	}
}

// build compiles cmd/nestctl and cmd/nestserved once per run. Build time
// is no part of any metric.
func (d *fleetDriver) build(e *env) error {
	if d.binDir != "" {
		return nil
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	bin, err := filepath.Abs(filepath.Join(e.workDir, "bin"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/nestctl", "./cmd/nestserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build daemons: %v\n%s", err, out)
	}
	d.binDir = bin
	return nil
}

// fleetJobConfig is the JSON body of POST /jobs for one benchmark job.
func fleetJobConfig(spec workloadSpec, seed int64, steps, stepDelayMS int, trace bool) service.JobConfig {
	return service.JobConfig{
		Cores: spec.Cores, Machine: spec.Machine, Strategy: spec.Strategy, Scenario: spec.Scenario,
		Seed: seed, Steps: steps, StepDelayMS: stepDelayMS, Trace: trace,
	}
}

// fleets tracks the running controller + worker pairs, so that an
// interrupted benchmark (SIGINT/SIGTERM) can still stop every process it
// started and remove their directories instead of leaving them behind.
var fleets struct {
	sync.Mutex
	live map[*fleet]bool
}

func trackFleet(f *fleet, live bool) {
	fleets.Lock()
	defer fleets.Unlock()
	if fleets.live == nil {
		fleets.live = map[*fleet]bool{}
	}
	if live {
		fleets.live[f] = true
	} else {
		delete(fleets.live, f)
	}
}

// killFleets kills every daemon still running; the signal handler's last
// act before exiting.
func killFleets() {
	fleets.Lock()
	defer fleets.Unlock()
	for f := range fleets.live {
		for _, cmd := range []*exec.Cmd{f.wrk, f.ctl} {
			if cmd != nil && cmd.Process != nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		}
		os.RemoveAll(f.dir)
	}
}

// fleetStarts is how often a round starts the daemons for its setup_s.
const fleetStarts = 5

// fleet is one running controller + worker pair.
type fleet struct {
	dir        string
	ctl, wrk   *exec.Cmd
	ctlURL     string
	wrkURL     string
	submitter  *http.Client
	reader     *http.Client
	setupS     float64
	viewerDims [2]int
}

func oneConnClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// freePorts returns n distinct loopback ports nothing listens on. The
// listeners that found them stay open until all n are known: asking one at
// a time, the kernel may hand the port just released out again.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// waitOK polls url until it answers 200.
func waitOK(c *http.Client, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %s (last error: %v)", url, timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// start launches nestctl and one nestserved and waits until the worker is
// registered, the controller's /readyz answers 200 and the worker accepts
// connections; that interval is the workload's setup_s.
func (d *fleetDriver) start(e *env) (*fleet, error) {
	dir, err := os.MkdirTemp(e.workDir, "fleet-")
	if err != nil {
		return nil, err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	// Neither daemon creates its directory: without them the placement WAL
	// fails to open and every checkpoint persist fails, silently.
	for _, sub := range []string{"state", "ckpt"} {
		if err := os.Mkdir(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	ports, err := freePorts(2)
	if err != nil {
		return nil, err
	}
	ctlPort, wrkPort := ports[0], ports[1]
	f := &fleet{
		dir:       dir,
		ctlURL:    fmt.Sprintf("http://127.0.0.1:%d", ctlPort),
		wrkURL:    fmt.Sprintf("http://127.0.0.1:%d", wrkPort),
		submitter: oneConnClient(),
		reader:    oneConnClient(),
	}
	// launch starts one daemon and stores it in slot (f.ctl or f.wrk)
	// under the registry lock, which the signal handler reads them under.
	launch := func(slot **exec.Cmd, name string, args ...string) error {
		cmd := exec.Command(filepath.Join(d.binDir, name), args...)
		log, err := os.Create(filepath.Join(dir, name+".log"))
		if err != nil {
			return err
		}
		defer log.Close()
		cmd.Stdout, cmd.Stderr = log, log
		if err := cmd.Start(); err != nil {
			return err
		}
		fleets.Lock()
		*slot = cmd
		fleets.Unlock()
		return nil
	}
	trackFleet(f, true)
	t0 := time.Now()
	if err := launch(&f.ctl, "nestctl", "-addr", fmt.Sprintf("127.0.0.1:%d", ctlPort), "-state-dir", filepath.Join(dir, "state")); err != nil {
		f.stop()
		return nil, err
	}
	if err := waitOK(f.submitter, f.ctlURL+"/healthz", 10*time.Second); err != nil {
		f.stop()
		return nil, err
	}
	if err := launch(&f.wrk, "nestserved", "-addr", fmt.Sprintf("127.0.0.1:%d", wrkPort),
		"-workers", strconv.Itoa(d.spec.Workers), "-checkpoint-dir", filepath.Join(dir, "ckpt"),
		"-controller", f.ctlURL, "-worker-id", "w1", "-advertise", f.wrkURL); err != nil {
		f.stop()
		return nil, err
	}
	// The worker registers with the controller before it listens, so the
	// controller's /readyz can turn 200 while the worker still refuses
	// connections; wait for the worker's own listener too.
	for _, url := range []string{f.ctlURL + "/readyz", f.wrkURL + "/healthz"} {
		if err := waitOK(f.submitter, url, 10*time.Second); err != nil {
			f.stop()
			return nil, fmt.Errorf("%w\n%s", err, f.logs())
		}
	}
	f.setupS = time.Since(t0).Seconds()
	return f, nil
}

func (f *fleet) logs() string {
	var b strings.Builder
	for _, name := range []string{"nestctl.log", "nestserved.log"} {
		raw, _ := os.ReadFile(filepath.Join(f.dir, name))
		fmt.Fprintf(&b, "--- %s ---\n%s", name, raw)
	}
	return b.String()
}

// stop terminates both daemons (worker first, so it can deregister) and
// waits for them; a daemon that ignores SIGTERM for 10 s is killed.
func (f *fleet) stop() {
	for _, cmd := range []*exec.Cmd{f.wrk, f.ctl} {
		if cmd == nil || cmd.Process == nil {
			continue
		}
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}
	trackFleet(f, false)
	f.submitter.CloseIdleConnections()
	f.reader.CloseIdleConnections()
	os.RemoveAll(f.dir)
}

// peakRSSMB reads VmHWM of the nestserved process.
func (f *fleet) peakRSSMB() float64 { return vmHWMMB(f.wrk.Process.Pid) }

func vmHWMMB(pid int) float64 {
	file, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// do issues one request on the given client and returns status and body.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// jobSnapshot is the slice of service.Snapshot the benchmark reads.
type jobSnapshot struct {
	ID         string           `json:"id"`
	State      service.JobState `json:"state"`
	Step       int              `json:"step"`
	TotalSteps int              `json:"total_steps"`
	Events     int              `json:"events"`
	ExecTime   float64          `json:"exec_time"`
	RedistTime float64          `json:"redist_time"`
	Error      string           `json:"error"`
}

// submit POSTs a job through nestctl and returns its accepted snapshot and
// the POST's round-trip time.
func (f *fleet) submit(rec *recorder, op int, cfg service.JobConfig) (jobSnapshot, time.Duration, error) {
	body, err := json.Marshal(cfg)
	if err != nil {
		return jobSnapshot{}, 0, err
	}
	sp := rec.begin("http POST /jobs", 0, op)
	t := time.Now()
	status, raw, err := do(f.submitter, http.MethodPost, f.ctlURL+"/jobs", body)
	rtt := time.Since(t)
	rec.end(sp)
	if err != nil {
		return jobSnapshot{}, rtt, err
	}
	if status != http.StatusCreated {
		return jobSnapshot{}, rtt, fmt.Errorf("POST /jobs: status %d: %s", status, raw)
	}
	var snap jobSnapshot
	return snap, rtt, json.Unmarshal(raw, &snap)
}

// runJob submits one job and polls it to a terminal state, closed loop.
// The job's latency runs from the accepted POST to the first poll that
// sees a terminal state.
func (f *fleet) runJob(rec *recorder, op int, cfg service.JobConfig, poll time.Duration) (snap jobSnapshot, latency, submitRTT time.Duration, err error) {
	snap, submitRTT, err = f.submit(rec, op, cfg)
	if err != nil {
		return snap, 0, submitRTT, err
	}
	accepted := time.Now()
	parent := rec.begin("job", 0, op)
	defer rec.end(parent)
	for !snap.State.Terminal() {
		time.Sleep(poll)
		sp := rec.begin("http GET /jobs/{id}", parent, op)
		status, raw, err := do(f.submitter, http.MethodGet, f.ctlURL+"/jobs/"+snap.ID, nil)
		rec.end(sp)
		if err != nil {
			return snap, 0, submitRTT, err
		}
		if status != http.StatusOK {
			return snap, 0, submitRTT, fmt.Errorf("GET /jobs/%s: status %d: %s", snap.ID, status, raw)
		}
		if err := json.Unmarshal(raw, &snap); err != nil {
			return snap, 0, submitRTT, err
		}
	}
	return snap, time.Since(accepted), submitRTT, nil
}

// scrape reads a Prometheus text page into name{labels} → value.
func scrape(c *http.Client, url string) (map[string]float64, error) {
	status, raw, err := do(c, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// readStats is what the open-loop reader measured.
type readStats struct {
	cold, warm, lateness []float64
	attempted, failed    int
	errs                 []string
}

// readLoop issues GET /jobs/{viewer}/field through nestctl on a fixed
// schedule (open loop) until stop closes. Each read is timed from the
// moment it was due, so a stalled read charges its delay to the reads
// queued behind it; how late each was actually sent is reported too.
func (f *fleet) readLoop(rec *recorder, viewer string, hz int, stop <-chan struct{}) readStats {
	var st readStats
	period := time.Second / time.Duration(hz)
	url := f.ctlURL + "/jobs/" + viewer + "/field?var=qcloud"
	start := time.Now()
	lastStep := -1
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return st
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return st
			default:
			}
		}
		sent := time.Now()
		sp := rec.begin("http GET /jobs/{id}/field", 0, i)
		status, body, err := do(f.reader, http.MethodGet, url, nil)
		rec.end(sp)
		latency := ms(time.Since(due))
		st.attempted++
		st.lateness = append(st.lateness, ms(sent.Sub(due)))
		if err != nil || status != http.StatusOK {
			st.failed++
			st.errs = append(st.errs, fmt.Sprintf("read %d: status %d err %v", i, status, err))
			continue
		}
		resp, err := serve.DecodeResponse(body)
		if err != nil || resp.GridNX != f.viewerDims[0] || resp.GridNY != f.viewerDims[1] ||
			resp.Field.NX != f.viewerDims[0] || resp.Field.NY != f.viewerDims[1] {
			st.failed++
			st.errs = append(st.errs, fmt.Sprintf("read %d: response does not decode to the viewer's %dx%d domain (err %v)", i, f.viewerDims[0], f.viewerDims[1], err))
			continue
		}
		if resp.Step > lastStep {
			st.cold = append(st.cold, latency)
			lastStep = resp.Step
		} else {
			st.warm = append(st.warm, latency)
		}
	}
}

// timelinePhases is the slice of service.Timeline the benchmark reads.
type timelinePhases struct {
	Phases []struct {
		Name    string `json:"name"`
		TotalNS int64  `json:"total_ns"`
	} `json:"phases"`
	StepLatency *struct {
		TotalNS int64 `json:"total_ns"`
	} `json:"step_latency"`
}

func (d *fleetDriver) round(e *env, episode int, traced bool) (roundOut, error) {
	out := newRoundOut()
	if err := d.build(e); err != nil {
		return out, err
	}
	rec := e.recorder(traced)
	// One start is a single 12 ms sample of two process launches; the pair
	// is started fleetStarts times and the round runs on the last.
	var f *fleet
	var starts []float64
	for i := 0; i < fleetStarts; i++ {
		if f != nil {
			f.stop()
		}
		var err error
		if f, err = d.start(e); err != nil {
			return out, err
		}
		starts = append(starts, f.setupS)
	}
	defer f.stop()
	out.values["setup_s"] = median(starts)
	mc := scenario.DefaultMonsoonConfig()
	f.viewerDims = [2]int{mc.NX, mc.NY}
	spec := d.spec
	poll := time.Duration(spec.PollMS) * time.Millisecond
	jobSeed := func(i int) int64 { return subSeed(e.seed, seedFleet, int64(episode), int64(i)) }

	// The viewer holds one worker slot for the whole round; terminal jobs
	// 404 on /field, hence a long throttled job rather than a finished one.
	viewer, _, err := f.submit(rec, -1, fleetJobConfig(spec, jobSeed(-1), 100_000, spec.ViewerStepDelayMS, false))
	if err != nil {
		return out, fmt.Errorf("%w\n%s", err, f.logs())
	}
	for i := 0; i < spec.WarmupJobs; i++ {
		snap, _, _, err := f.runJob(nil, -2-i, fleetJobConfig(spec, jobSeed(-2-i), spec.JobSteps, 0, false), poll)
		if err != nil || snap.State != service.StateDone {
			return out, fmt.Errorf("warm-up job %d: state %q error %q: %v", i, snap.State, snap.Error, err)
		}
	}

	wrk0, err := scrape(f.submitter, f.wrkURL+"/metrics")
	if err != nil {
		return out, err
	}
	ctl0, err := scrape(f.submitter, f.ctlURL+"/metrics")
	if err != nil {
		return out, err
	}

	// The window: the closed-loop submitter beside the open-loop reader.
	stop := make(chan struct{})
	var reads readStats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = f.readLoop(rec, viewer.ID, spec.ReadRateHz, stop)
	}()
	var jobs, submits []float64
	var phaseNS = map[string]int64{}
	var stepNS, jobNS int64
	steps := 0
	h := fnv.New64a()
	windowStart := time.Now()
	for i := 0; i < spec.WindowJobs; i++ {
		snap, latency, rtt, err := f.runJob(rec, i, fleetJobConfig(spec, jobSeed(i), spec.JobSteps, 0, traced), poll)
		out.attempted++
		if err != nil {
			out.fail("job %d: %v", i, err)
			continue
		}
		if snap.State != service.StateDone || snap.Step != snap.TotalSteps {
			out.fail("job %s ended %s at step %d of %d: %s", snap.ID, snap.State, snap.Step, snap.TotalSteps, snap.Error)
			continue
		}
		jobs = append(jobs, ms(latency))
		submits = append(submits, ms(rtt))
		steps += snap.Step
		fmt.Fprintf(h, "%d|%x|%x;", snap.Events, snap.RedistTime, snap.ExecTime)
		if traced {
			var tl timelinePhases
			status, raw, err := do(f.submitter, http.MethodGet, f.ctlURL+"/jobs/"+snap.ID+"/timeline", nil)
			if err != nil || status != http.StatusOK || json.Unmarshal(raw, &tl) != nil || tl.StepLatency == nil {
				out.fail("job %s: timeline: status %d err %v", snap.ID, status, err)
				continue
			}
			for _, p := range tl.Phases {
				phaseNS[p.Name] += p.TotalNS
			}
			stepNS += tl.StepLatency.TotalNS
			jobNS += latency.Nanoseconds()
		}
	}
	window := time.Since(windowStart)
	close(stop)
	wg.Wait()

	wrk1, err := scrape(f.submitter, f.wrkURL+"/metrics")
	if err != nil {
		return out, err
	}
	ctl1, err := scrape(f.submitter, f.ctlURL+"/metrics")
	if err != nil {
		return out, err
	}
	if traced {
		d.proxyOverhead(&out, f, viewer.ID)
	}
	out.values["peak_rss_mb"] = f.peakRSSMB()
	if status, raw, err := do(f.submitter, http.MethodPost, f.ctlURL+"/jobs/"+viewer.ID+"/cancel", nil); err != nil || status >= 300 {
		out.fail("cancel viewer: status %d err %v: %s", status, err, raw)
	}

	out.attempted += reads.attempted
	out.failed += reads.failed
	out.checks = append(out.checks, reads.errs...)
	out.values["steps_per_s"] = float64(steps) / window.Seconds()
	out.values["job_p50_ms"] = median(jobs)
	out.values["read_cold_p50_ms"] = median(reads.cold)
	out.samples["job_p50_ms"] = jobs
	out.samples["read_cold_p50_ms"] = reads.cold
	out.samples["serve.read_warm_p50_ms"] = reads.warm
	out.digest = fmt.Sprintf("%016x", h.Sum64())
	if len(reads.cold) == 0 || len(reads.warm) == 0 {
		out.fail("reader saw %d cold and %d warm reads; the viewer is not stepping beside the reads", len(reads.cold), len(reads.warm))
	}

	delta := func(a, b map[string]float64, name string) float64 { return b[name] - a[name] }
	hits := delta(wrk0, wrk1, "nestserved_tile_cache_hits_total")
	misses := delta(wrk0, wrk1, "nestserved_tile_cache_misses_total")
	out.layer["service.steps_executed"] = delta(wrk0, wrk1, "nestserved_steps_executed_total")
	out.layer["service.auto_checkpoints"] = delta(wrk0, wrk1, "nestserved_auto_checkpoints_total")
	out.layer["service.ckpt_bytes"] = delta(wrk0, wrk1, "nestserved_checkpoint_bytes_total")
	out.layer["service.ckpt_persist_p50_us"] = 1e6 * wrk1[`nestserved_checkpoint_duration_seconds{quantile="0.5"}`]
	out.layer["fleet.wal_records"] = delta(ctl0, ctl1, "nestctl_fleet_wal_records_total")
	out.layer["fleet.submit_ms"] = median(submits)
	out.layer["serve.cache_hit_pct"] = 100 * ratio(hits, hits+misses)
	out.layer["serve.reader_lateness_p50_ms"] = median(reads.lateness)
	out.layer["serve.read_warm_p50_ms"] = median(reads.warm)

	if traced && stepNS > 0 {
		// Inside-the-step attribution comes from the jobs' own obs.Tracer
		// via /timeline; an outside caller cannot time a daemon's steps,
		// so the shares are of the tracer's step total.
		var phases int64
		for _, name := range phaseNames {
			out.layer["core.share."+name] = ratio(float64(phaseNS[name]), float64(stepNS))
			phases += phaseNS[name]
		}
		out.layer["core.share.other"] = ratio(float64(stepNS-phases), float64(stepNS))
		out.layer["core.share.sum"] = 1
		// And where a job's latency goes, as shares of POST-accepted → done.
		out.layer["service.job_share.steps"] = ratio(float64(stepNS), float64(jobNS))
		for _, name := range []string{"build", "observe", "checkpoint"} {
			out.layer["service.job_share."+name] = ratio(float64(phaseNS[name]), float64(jobNS))
		}
		out.layer["service.job_share.other"] = ratio(float64(jobNS-stepNS-phaseNS["build"]-phaseNS["observe"]-phaseNS["checkpoint"]), float64(jobNS))
	}
	return out, nil
}

// proxyOverhead pairs GET /jobs/{id} through nestctl with the same GET
// sent straight to the worker; the difference of the medians is what the
// controller's proxy hop costs.
func (d *fleetDriver) proxyOverhead(out *roundOut, f *fleet, id string) {
	var via, direct []float64
	for i := 0; i < 50; i++ {
		for _, leg := range []struct {
			base string
			dst  *[]float64
		}{{f.ctlURL, &via}, {f.wrkURL, &direct}} {
			t := time.Now()
			status, _, err := do(f.submitter, http.MethodGet, leg.base+"/jobs/"+id, nil)
			if err != nil || status != http.StatusOK {
				out.fail("proxy pair %d via %s: status %d err %v", i, leg.base, status, err)
				return
			}
			*leg.dst = append(*leg.dst, float64(time.Since(t).Nanoseconds())/1e3)
		}
	}
	out.layer["fleet.proxy_overhead_us"] = median(via) - median(direct)
}
