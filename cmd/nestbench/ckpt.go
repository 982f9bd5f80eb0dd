package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nestdiff/internal/core"
	"nestdiff/internal/obs"
)

// ckptDriver drives ckpt-cycle: track-serial's pipeline shape with a
// checkpoint cut every CkptEvery steps, each blob fsync'd to disk, and at
// every cut that ends a full delta chain a RestorePipeline of that chain
// whose continuation must match the uninterrupted run.
//
// End to end a cut is its Encode, what the step loop stalls for (in
// service the persist is asynchronous). Encode plus the fsync'd write is
// reported per layer, core.ckpt_cut_p50_ms: nine tenths of it is the
// host's disk, which moves it by 20 % between runs whatever the code does.
//
// Genesis here is the weather model's own seeded spontaneous genesis, not
// an injected schedule: a replay delta re-executes Pipeline.Step from the
// base and cannot see cells a caller injected between cuts, so a chain cut
// across scheduled injections fails its CRC check on restore (bench/README
// records this finding). The model's own genesis draws from the
// checkpointed RNG state and replays exactly.
type ckptDriver struct {
	spec   workloadSpec
	inputs episodeCache[trackInput]
}

func (d *ckptDriver) input(e *env, episode int) (trackInput, error) {
	return d.inputs.get(episode, func() (trackInput, error) {
		return genTrackInput(d.spec, subSeed(e.seed, seedCkpt, int64(episode)))
	})
}

// pendingVerify is a restored pipeline waiting for the uninterrupted run
// to reach the step it will be compared at.
type pendingVerify struct {
	pipe *core.Pipeline
	at   int
}

func (d *ckptDriver) round(e *env, episode int, traced bool) (roundOut, error) {
	out := newRoundOut()
	in, err := d.input(e, episode)
	if err != nil {
		return out, err
	}
	rec := e.recorder(traced)
	dir, err := os.MkdirTemp(e.workDir, "ckpt-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)

	resetPeakRSS()
	var run *pipelineRun
	var cw *core.CheckpointWriter
	out.values["setup_s"], err = medianSetup(func() (err error) {
		cw = core.NewCheckpointWriter(core.CheckpointWriterOptions{MaxDeltas: d.spec.MaxDeltas})
		run, err = in.build()
		return
	})
	if err != nil {
		return out, err
	}
	m := run.machine
	var otr *obs.Tracer
	if traced {
		otr = obs.New(obs.Options{})
		run.pipe.SetTracer(otr)
	}

	var (
		chain                             []byte
		cuts, encs, encFull, encDelta, wr []float64
		encsPerMcell                      []float64
		restores, decodes                 []float64
		fullBytes, deltaBytes             []float64
		blobBytes, busyNS, cells          int64
		stepNS                            int64
		cellsAt                           = make([]int64, d.spec.Steps+1) // grid points updated up to step s
		restoresPerMcell                  []float64
		deltas                            int
		pending                           []pendingVerify
	)
	for s := 1; s <= d.spec.Steps; s++ {
		cells += gridPoints(run.pipe)
		cellsAt[s] = cells
		op := rec.begin("step", 0, s)
		sp := rec.begin("core.Pipeline.Step", op, s)
		t := time.Now()
		err := run.pipe.Step()
		stepDur := time.Since(t).Nanoseconds()
		busyNS += stepDur
		stepNS += stepDur
		rec.end(sp)
		rec.end(op)
		out.attempted++
		if err != nil {
			out.fail("step %d: %v", s, err)
			break
		}

		for len(pending) > 0 && pending[0].at == s {
			d.verify(&out, rec, pending[0], run.pipe)
			pending = pending[1:]
		}
		if s%d.spec.CkptEvery != 0 {
			continue
		}

		// One cut: encode, then make the blob durable.
		cut := len(cuts) + 1
		op = rec.begin("cut", 0, cut)
		sp = rec.begin("core.CheckpointWriter.Encode", op, cut)
		t = time.Now()
		blob, full, err := cw.Encode(run.pipe)
		enc := time.Since(t)
		rec.end(sp)
		out.attempted++
		if err != nil {
			rec.end(op)
			out.fail("cut %d: encode: %v", cut, err)
			break
		}
		sp = rec.begin("core.WriteFileAtomic", op, cut)
		t = time.Now()
		err = core.WriteFileAtomic(filepath.Join(dir, fmt.Sprintf("cut-%04d.ndcp", cut)), blob, 0o644)
		write := time.Since(t)
		rec.end(sp)
		rec.end(op)
		if err != nil {
			out.fail("cut %d: write: %v", cut, err)
			break
		}
		busyNS += (enc + write).Nanoseconds()
		cuts = append(cuts, ms(enc+write))
		encs = append(encs, ms(enc))
		encsPerMcell = append(encsPerMcell, ms(enc)*1e6/float64(gridPoints(run.pipe)))
		wr = append(wr, ms(write))
		blobBytes += int64(len(blob))
		if full {
			chain = append(chain[:0], blob...)
			deltas = 0
			encFull = append(encFull, ms(enc))
			fullBytes = append(fullBytes, float64(len(blob)))
		} else {
			chain = append(chain, blob...)
			deltas++
			encDelta = append(encDelta, ms(enc))
			deltaBytes = append(deltaBytes, float64(len(blob)))
		}
		if deltas < d.spec.MaxDeltas || s+d.spec.VerifySteps > d.spec.Steps {
			continue
		}

		// The chain is complete (base + MaxDeltas deltas): restore it, and
		// separately its base alone, so decode and replay can be told apart.
		rs := len(restores) + 1
		op = rec.begin("restore", 0, rs)
		sp = rec.begin("core.RestorePipeline", op, rs)
		t = time.Now()
		restored, err := core.RestorePipeline(bytes.NewReader(chain), m.Net, m.Model, m.Oracle)
		dur := time.Since(t)
		rec.end(sp)
		out.attempted++
		if err != nil {
			rec.end(op)
			out.fail("restore %d at step %d: %v", rs, s, err)
			continue
		}
		restores = append(restores, ms(dur))
		// The restore replays the steps since the chain's base.
		replayed := cellsAt[s] - cellsAt[s-d.spec.MaxDeltas*d.spec.CkptEvery]
		restoresPerMcell = append(restoresPerMcell, ms(dur)*1e6/float64(replayed))
		baseLen := len(chain) - sumTail(deltaBytes, d.spec.MaxDeltas)
		sp = rec.begin("core.RestorePipeline.base", op, rs)
		t = time.Now()
		_, err = core.RestorePipeline(bytes.NewReader(chain[:baseLen]), m.Net, m.Model, m.Oracle)
		decodes = append(decodes, ms(time.Since(t)))
		rec.end(sp)
		rec.end(op)
		if err != nil {
			out.fail("restore %d: base alone: %v", rs, err)
		}
		if restored.StepCount() != s {
			out.fail("restore %d: restored pipeline is at step %d, want %d", rs, restored.StepCount(), s)
			continue
		}
		pending = append(pending, pendingVerify{pipe: restored, at: s + d.spec.VerifySteps})
	}

	done := run.pipe.StepCount()
	out.values["peak_rss_mb"] = vmHWMMB(os.Getpid())
	out.values["steps_per_s"] = float64(done) / (float64(busyNS) / 1e9)
	out.values["ckpt_encode_p50_ms"] = median(encs)
	out.values["restore_p50_ms"] = median(restores)
	out.values["ckpt_bytes_per_cut"] = ratio(float64(blobBytes), float64(len(cuts)))
	out.values["mcell_updates_per_s"] = float64(cellsAt[done]) / 1e6 / (float64(busyNS) / 1e9)
	out.values["restore_p50_ms_per_mcell"] = median(restoresPerMcell)
	out.samples["restore_p50_ms_per_mcell"] = restoresPerMcell
	// A cut checksums every field it covers, so across seeds it is read
	// per million grid points of checkpointed state.
	out.values["ckpt_encode_p50_ms_per_mcell"] = median(encsPerMcell)
	out.samples["ckpt_encode_p50_ms"] = encs
	out.samples["ckpt_encode_p50_ms_per_mcell"] = encsPerMcell
	out.samples["core.ckpt_cut_p50_ms"] = cuts
	out.samples["restore_p50_ms"] = restores
	out.layer["core.ckpt_cut_p50_ms"] = median(cuts)
	out.layer["core.ckpt_encode_full_us"] = 1e3 * median(encFull)
	out.layer["core.ckpt_encode_delta_us"] = 1e3 * median(encDelta)
	out.layer["core.write_atomic_us"] = 1e3 * median(wr)
	out.layer["core.ckpt_full_bytes"] = median(fullBytes)
	out.layer["core.ckpt_delta_bytes"] = median(deltaBytes)
	out.layer["core.restore_decode_ms"] = median(decodes)
	out.layer["core.restore_replay_ms"] = median(restores) - median(decodes)
	out.layer["core.adaptations"] = float64(len(run.pipe.Events()))
	out.digest = eventDigest(run.pipe.Events(), done)
	if traced {
		phaseShares(&out, otr, stepNS)
	}
	if len(restores) == 0 {
		out.fail("no complete delta chain in %d steps: nothing was restored", d.spec.Steps)
	}
	return out, nil
}

// verify continues a restored pipeline to the step the uninterrupted run
// has reached and requires bit-identical fields and identical decisions.
func (d *ckptDriver) verify(out *roundOut, rec *recorder, pv pendingVerify, live *core.Pipeline) {
	sp := rec.begin("verify.continue", 0, pv.at)
	err := pv.pipe.Run(d.spec.VerifySteps)
	rec.end(sp)
	out.attempted += d.spec.VerifySteps
	if err != nil {
		out.fail("restored run to step %d: %v", pv.at, err)
		return
	}
	if got, want := stateCRC(pv.pipe), stateCRC(live); got != want {
		out.fail("restored-and-continued fields at step %d have CRC %08x, uninterrupted run %08x", pv.at, got, want)
	}
	if got, want := eventDigest(pv.pipe.Events(), pv.at), eventDigest(live.Events(), pv.at); got != want {
		out.fail("restored-and-continued events at step %d digest %s, uninterrupted run %s", pv.at, got, want)
	}
}

// sumTail sums the last n values of xs as an int.
func sumTail(xs []float64, n int) int {
	sum := 0
	for _, x := range xs[len(xs)-n:] {
		sum += int(x)
	}
	return sum
}
