package service

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"nestdiff/internal/core"
	"nestdiff/internal/field"
	"nestdiff/internal/obs"
	"nestdiff/internal/serve"
)

// errStaleStep rejects a ?step= request for anything but the latest
// materialized snapshot; the HTTP layer maps it to 404 so clients poll
// forward, never backward.
var errStaleStep = errors.New("service: requested step is not the latest snapshot")

// fieldAcquireWait bounds how long a field read waits for the running
// job to publish — at once when its worker is parked between steps, at
// the end of the current step otherwise — before settling for the last
// published snapshot (or 404 when none exists yet).
const fieldAcquireWait = 5 * time.Second

// exportFreshWait bounds how long a checkpoint export waits for the
// running job to cut a boundary checkpoint before shipping the last
// good one. The step loop itself is never blocked longer than the one
// boundary checkpoint it was going to pay anyway.
const exportFreshWait = 2 * time.Second

// jobSink adapts a job's snapshot publisher to the pipeline's
// step-boundary hook: with no waiting reader it is an integer store;
// with one, it materializes the copy-on-write snapshot on the worker's
// side of the boundary and drops the job's older tiles from tiles (nil:
// no cache).
type jobSink struct {
	j     *Job
	tiles *serve.Cache
	// quit and kill are the scheduler's drain and kill signals, which end
	// a wait between steps early (nil: never).
	quit, kill <-chan struct{}
}

func (k *jobSink) PublishStep(p *core.Pipeline) {
	k.retire(k.j.publisher().Publish(p.StepCount(), func() map[string]*field.Field {
		return materializeVars(p)
	}))
}

// publishIfStale publishes the boundary the attempt is about to go idle
// at, if a reader ever saw an older one (see Publisher.PublishIfStale).
func (k *jobSink) publishIfStale(p *core.Pipeline) {
	k.retire(k.j.publisher().PublishIfStale(p.StepCount(), func() map[string]*field.Field {
		return materializeVars(p)
	}))
}

// retire drops the job's cached tiles once a fresh snapshot is
// materialized: steps only rise within an epoch and every restore bumps
// it, so each cached entry belongs to an older, no longer servable step.
func (k *jobSink) retire(snap *serve.Snapshot) {
	if snap != nil {
		k.tiles.InvalidateJob(k.j.ID)
	}
}

// wait parks the worker between steps of a throttled job for delay, and
// answers any read demanded meanwhile by publishing the boundary it is
// parked at — a read no longer waits out the delay for the next step.
// A drain or a kill ends the wait at once, so the step loop parks or
// stops at this boundary instead of after the delay. Only the calling
// worker goroutine touches the pipeline. With a tracer, the time spent
// materializing is the "publish" phase and "sleep" covers only the time
// asleep.
func (k *jobSink) wait(p *core.Pipeline, delay time.Duration, tr *obs.Tracer) {
	start := time.Now()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var published time.Duration
	for {
		select {
		case <-timer.C:
		case <-k.quit:
		case <-k.kill:
		case <-k.j.publisher().Demanded():
			t0 := time.Now()
			k.PublishStep(p)
			d := time.Since(t0)
			published += d
			tr.EmitPhase(p.StepCount(), "publish", d)
			continue
		}
		tr.EmitPhase(p.StepCount(), "sleep", time.Since(start)-published)
		return
	}
}

// materializeVars copies the pipeline's readable field state into
// private buffers: the parent model's qcloud and OLR, plus each live
// nest's fine field under "nest:<id>" (Nests, or DistributedNests in
// distributed mode).
func materializeVars(p *core.Pipeline) map[string]*field.Field {
	m := p.Model()
	nests := p.Nests()
	if nests == nil {
		nests = p.DistributedNests()
	}
	vars := make(map[string]*field.Field, 2+len(nests))
	vars["qcloud"] = m.QCloud().Clone()
	vars["olr"] = m.OLR().Clone()
	for id, n := range nests {
		vars[fmt.Sprintf("nest:%d", id)] = n.QCloud().Clone()
	}
	return vars
}

// TileCache returns the scheduler's shared tile cache (for metrics and
// tests).
func (s *Scheduler) TileCache() *serve.Cache { return s.tiles }

// ReadField serves GET /jobs/{id}/field: it acquires the job's latest
// step-boundary snapshot (demanding one from the running worker when
// stale: a throttled worker parked between steps publishes the boundary
// it is parked at, a stepping one the boundary that ends its step) and
// assembles the quantized tile response for the requested var and rect
// through the shared tile cache, from which each fresh snapshot drops
// the job's older steps.
//
// varName defaults to "qcloud"; rectStr is "x0,y0,w,h" (empty: full
// domain); stepStr, when set, must name the latest snapshot's step —
// only the newest boundary is materialized, older steps 404.
func (s *Scheduler) ReadField(id, varName, rectStr, stepStr string) ([]byte, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	snap, err := j.publisher().Acquire(fieldAcquireWait)
	if err != nil {
		return nil, err
	}
	if stepStr != "" {
		want, perr := strconv.Atoi(stepStr)
		if perr != nil {
			return nil, fmt.Errorf("%w: bad step %q", serve.ErrBadRect, stepStr)
		}
		if want != snap.Step {
			return nil, fmt.Errorf("%w: step %d (latest is %d)", errStaleStep, want, snap.Step)
		}
	}
	if varName == "" {
		varName = "qcloud"
	}
	f, ok := snap.Vars[varName]
	if !ok {
		return nil, fmt.Errorf("%w: unknown var %q (have %v)", serve.ErrBadRect, varName, snap.VarNames())
	}
	rect, err := serve.ParseRect(rectStr, f.Bounds())
	if err != nil {
		return nil, err
	}
	return serve.BuildResponse(s.tiles, j.ID, varName, snap, rect)
}

// jobObsTracer returns a job's tracer for the SSE stream; untraced jobs
// have no event ring to stream.
func (s *Scheduler) jobObsTracer(id string) (*obs.Tracer, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	tr := j.obsTracer()
	if tr == nil {
		return nil, fmt.Errorf("service: job %q is not traced; submit with \"trace\": true to stream events", id)
	}
	return tr, nil
}
