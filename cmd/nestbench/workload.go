package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"nestdiff/internal/core"
	"nestdiff/internal/obs"
	"nestdiff/internal/scenario"
)

// env is what a round needs from the run: the seed every input derives
// from, a directory inside the checkout for files and child processes,
// and the span recorder (nil on untraced rounds).
type env struct {
	seed    int64
	workDir string
	rec     *recorder
}

// roundOut is what one round of one workload measured.
type roundOut struct {
	// values holds this round's end-to-end metrics by the suite's names.
	values map[string]float64
	// samples holds the timing samples (ms) behind each p50 metric, kept
	// for the tail diagnostics.
	samples map[string][]float64
	// layer holds per-layer numbers a round observes on the side: phase
	// shares, byte counts, scraped counters.
	layer map[string]float64
	// digest identifies the round's decisions; equal inputs must give
	// equal digests.
	digest string
	// attempted and failed count operations (steps, applies, cuts,
	// restores, jobs, reads); checks lists failed output checks.
	attempted int
	failed    int
	checks    []string
}

// recorder returns the span recorder for a round: nil unless it is traced.
func (e *env) recorder(traced bool) *recorder {
	if traced {
		return e.rec
	}
	return nil
}

func newRoundOut() roundOut {
	return roundOut{values: map[string]float64{}, samples: map[string][]float64{}, layer: map[string]float64{}}
}

func (o *roundOut) fail(format string, a ...any) {
	o.failed++
	o.checks = append(o.checks, fmt.Sprintf(format, a...))
}

// driver runs rounds of one workload. A round builds its own state from
// the episode's generated input (that build is the round's setup_s
// sample), replays the input, checks the outputs and tears down, so
// rounds of different workloads interleave freely.
type driver interface {
	round(e *env, episode int, traced bool) (roundOut, error)
}

func newDriver(spec workloadSpec) (driver, error) {
	switch spec.Kind {
	case "track":
		return &trackDriver{spec: spec, inputs: episodeCache[trackInput]{}, refs: map[int]string{}}, nil
	case "churn":
		return &churnDriver{spec: spec, inputs: episodeCache[[]scenario.Set]{}, checked: map[int]bool{}}, nil
	case "ckpt":
		return &ckptDriver{spec: spec, inputs: episodeCache[trackInput]{}}, nil
	case "fleet":
		return &fleetDriver{spec: spec}, nil
	}
	return nil, fmt.Errorf("workload %s: unknown kind %q", spec.Name, spec.Kind)
}

// episodeCache keeps each episode's generated input: generating it is no
// part of any round's timing, and replays must see the identical input.
type episodeCache[T any] map[int]T

func (c episodeCache[T]) get(episode int, gen func() (T, error)) (T, error) {
	if in, ok := c[episode]; ok {
		return in, nil
	}
	in, err := gen()
	if err == nil {
		c[episode] = in
	}
	return in, err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// One in-process build takes 40 µs to 1.5 ms, nearly all of it allocation,
// so a single one mostly measures where the collector happened to be. A
// set-up sample is therefore the mean of as many builds as fit in
// setupBatch, taken with the collector held off and the heap collected
// beforehand (untimed), and a round's setup_s the median of setupBatches
// such samples.
const (
	setupBatch   = 2 * time.Millisecond
	setupBatches = 9
)

// medianSetup measures build that way and returns seconds per build; the
// state the last call built is the one the round uses.
func medianSetup(build func() error) (float64, error) {
	// Once untimed: the process's first build pays for cold code and
	// unmapped pages, which no later one does.
	if err := build(); err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < setupBatches; i++ {
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		t := time.Now()
		n := 0
		var err error
		for err == nil && (n < 2 || time.Since(t) < setupBatch) {
			err = build()
			n++
		}
		xs = append(xs, time.Since(t).Seconds()/float64(n))
		debug.SetGCPercent(gc)
		if err != nil {
			return 0, err
		}
	}
	return median(xs), nil
}

// resetPeakRSS starts an in-process round's peak_rss_mb afresh: the heap
// is collected and returned to the system, then the kernel's high-water
// mark is reset to what is resident now ("5" to clear_refs, Linux 4.0 and
// later). The round ends by reading VmHWM. Where /proc cannot be written
// the mark stays the whole process's. The number means something only
// when the workload has the process to itself, as in a BENCHMARK.json
// run; the suite, which runs every workload in one process, reports
// peak_rss_mb for serve-fleet's daemon alone.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// memCounter reads the allocation counters around a loop so a round can
// report allocations and bytes per operation (MemStats delta / ops).
type memCounter struct{ mallocs, bytes uint64 }

func readMem() memCounter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounter{m.Mallocs, m.TotalAlloc}
}

// trackDriver drives track-serial and track-distributed: an in-process
// core.Pipeline stepped exactly as service.run.step does.
type trackDriver struct {
	spec   workloadSpec
	inputs episodeCache[trackInput]
	refs   map[int]string // episode → serial reference digest (distributed only)
}

func (d *trackDriver) input(e *env, episode int) (trackInput, error) {
	return d.inputs.get(episode, func() (trackInput, error) {
		return genTrackInput(d.spec, subSeed(e.seed, seedTrack, int64(episode)))
	})
}

// phaseNames are the obs.Tracer phases inside Pipeline.Step; whatever the
// step span covers beyond them is "other".
var phaseNames = []string{"model", "nests", "pda", "realloc", "reconcile"}

func (d *trackDriver) round(e *env, episode int, traced bool) (roundOut, error) {
	out := newRoundOut()
	in, err := d.input(e, episode)
	if err != nil {
		return out, err
	}
	resetPeakRSS()
	var run *pipelineRun
	out.values["setup_s"], err = medianSetup(func() (err error) { run, err = in.build(); return })
	if err != nil {
		return out, err
	}

	var otr *obs.Tracer
	rec := e.recorder(traced)
	if traced {
		otr = obs.New(obs.Options{})
		run.pipe.SetTracer(otr)
	}

	steps := d.spec.Steps
	plain := make([]float64, 0, steps)
	plainPerMcell := make([]float64, 0, steps)
	adapt := make([]float64, 0, steps/d.spec.Interval+1)
	adaptOverPlain := make([]float64, 0, steps/d.spec.Interval+1)
	var stepNS, cells int64
	var prev time.Duration // the previous step's duration, when that step was a plain one
	mem0 := readMem()
	start := time.Now()
	for s := 1; s <= steps; s++ {
		op := rec.begin("step", 0, s)
		sp := rec.begin("wrfsim.Model.InjectCell", op, s)
		err := run.inject()
		rec.end(sp)
		if err != nil {
			return out, err
		}
		stepCells := gridPoints(run.pipe)
		sp = rec.begin("core.Pipeline.Step", op, s)
		t := time.Now()
		err = run.pipe.Step()
		dur := time.Since(t)
		rec.end(sp)
		rec.end(op)
		out.attempted++
		if err != nil {
			out.fail("step %d: %v", s, err)
			break
		}
		stepNS += dur.Nanoseconds()
		cells += stepCells
		if s%d.spec.Interval == 0 {
			adapt = append(adapt, ms(dur))
			if prev > 0 {
				adaptOverPlain = append(adaptOverPlain, ms(dur-prev))
			}
			prev = 0
		} else {
			plain = append(plain, ms(dur))
			plainPerMcell = append(plainPerMcell, ms(dur)*1e6/float64(stepCells))
			prev = dur
		}
	}
	wall := time.Since(start)
	mem1 := readMem()
	out.values["peak_rss_mb"] = vmHWMMB(os.Getpid())

	done := run.pipe.StepCount()
	out.values["steps_per_s"] = float64(done) / wall.Seconds()
	out.values["step_p50_ms"] = median(plain)
	out.values["adapt_p50_ms"] = median(adapt)
	out.samples["step_p50_ms"] = plain
	out.samples["adapt_p50_ms"] = adapt
	// The forms of the three that runs of different seeds are compared in.
	// How long a step takes depends on how many nest points the generated
	// weather put in it; per million grid-point updates it does not. What an
	// adaptation step costs beyond the plain step before it (PDA,
	// reallocation, redistribution) depends on the seed far less than the
	// whole step, which carries the nests' stepping too.
	out.values["mcell_updates_per_s"] = float64(cells) / 1e6 / wall.Seconds()
	out.values["step_p50_ms_per_mcell"] = median(plainPerMcell)
	out.samples["step_p50_ms_per_mcell"] = plainPerMcell
	out.values["adapt_over_plain_p50_ms"] = median(adaptOverPlain)
	out.samples["adapt_over_plain_p50_ms"] = adaptOverPlain
	foldModelMetrics(&out, run.pipe.Events())
	out.layer["core.step_allocs"] = float64(mem1.mallocs-mem0.mallocs) / float64(done)
	out.layer["core.step_alloc_bytes"] = float64(mem1.bytes-mem0.bytes) / float64(done)
	out.digest = eventDigest(run.pipe.Events(), done)

	if traced {
		phaseShares(&out, otr, stepNS)
	}
	if d.spec.Distributed && episode == 0 {
		ref, err := d.serialReference(in, episode)
		if err != nil {
			return out, err
		}
		if ref != out.digest {
			out.fail("distributed digest %s differs from the serial pipeline's %s over the same %d steps", out.digest, ref, steps)
		}
	}
	return out, nil
}

// gridPoints is the number of grid points the next Pipeline.Step updates:
// the parent domain plus every live nest's fine grid.
func gridPoints(p *core.Pipeline) int64 {
	cfg := p.Model().Config()
	n := int64(cfg.NX * cfg.NY)
	for _, nest := range p.Nests() {
		nx, ny := nest.Size()
		n += int64(nx * ny)
	}
	for _, nest := range p.DistributedNests() {
		nx, ny := nest.Size()
		n += int64(nx * ny)
	}
	return n
}

// serialReference runs the episode's schedule through a serial-nest
// pipeline for the same number of steps, untimed, and returns its event
// digest: a distributed run must have made exactly the same decisions.
func (d *trackDriver) serialReference(in trackInput, episode int) (string, error) {
	if ref, ok := d.refs[episode]; ok {
		return ref, nil
	}
	in.spec.Distributed = false
	run, err := in.build()
	if err != nil {
		return "", err
	}
	if err := run.steps(d.spec.Steps); err != nil {
		return "", err
	}
	ref := eventDigest(run.pipe.Events(), d.spec.Steps)
	d.refs[episode] = ref
	return ref, nil
}

// foldModelMetrics sums the paper's modelled quantities over a run's
// adaptation events: redistribution time (Table IV) and average hop-bytes
// (Fig. 10: Σ hop-bytes / Σ nest bytes).
func foldModelMetrics(out *roundOut, events []core.AdaptationEvent) {
	var redist, hopBytes float64
	var total, moved, msgs, local int
	for _, ev := range events {
		redist += ev.Metrics.RedistTime
		hopBytes += ev.Metrics.Redist.HopBytes
		total += ev.Metrics.Redist.TotalBytes
		moved += ev.Metrics.Redist.RemoteBytes
		local += ev.Metrics.Redist.LocalBytes
		msgs += ev.Metrics.Redist.Messages
	}
	out.values["redist_model_s"] = redist
	out.values["hop_bytes_avg"] = ratio(hopBytes, float64(total))
	out.layer["redist.bytes_moved"] = float64(moved)
	out.layer["redist.messages"] = float64(msgs)
	out.layer["redist.overlap_pct"] = 100 * ratio(float64(local), float64(total))
	out.layer["core.adaptations"] = float64(len(events))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// phaseShares turns the obs.Tracer's phase sums into shares of the step
// time the harness measured from outside. "other" is what the tracer's own
// step span covers beyond its phases, so the shares sum to (tracer step
// total / harness step total) — 1.00 when nothing escapes attribution.
func phaseShares(out *roundOut, tr *obs.Tracer, stepNS int64) {
	totals := map[string]int64{}
	for _, ps := range tr.Summaries() {
		totals[ps.Name] = ps.TotalNS
	}
	var phases int64
	for _, name := range phaseNames {
		out.layer["core.share."+name] = ratio(float64(totals[name]), float64(stepNS))
		phases += totals[name]
	}
	out.layer["core.share.other"] = ratio(float64(totals["step"]-phases), float64(stepNS))
	out.layer["core.share.sum"] = ratio(float64(totals["step"]), float64(stepNS))
}
