package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"nestdiff/internal/alloc"
	"nestdiff/internal/core"
	"nestdiff/internal/elastic"
	"nestdiff/internal/field"
	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
	"nestdiff/internal/obs"
	"nestdiff/internal/pda"
	"nestdiff/internal/redist"
	"nestdiff/internal/scenario"
	"nestdiff/internal/serve"
	"nestdiff/internal/service"
	"nestdiff/internal/wrfsim"
)

// A probe times calls into one exported function of one layer, from
// outside, on inputs captured from a workload (its domain, live cells, a
// live nest, recorded Sets) rather than on synthetic shapes. sample
// returns one measurement in the metric's unit; the runner repeats it for
// a time budget and reports the median.
type probe struct {
	name string
	// once marks probes whose single sample is already an aggregate (a
	// whole tracker replay, a whole job).
	once   bool
	sample func() (float64, error)
}

// perOp times n calls of f and returns the mean duration of one in the
// given unit (1e3: µs, 1: ns).
func perOp(n int, perUnitNS float64, f func()) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t).Nanoseconds()) / float64(n) / perUnitNS
}

const (
	inNS = 1.0
	inUS = 1e3
)

// captured is the live state the probes run on: track-serial's episode-0
// pipeline stopped mid-run with at least one nest alive, and the first
// churn sets.
type captured struct {
	spec    workloadSpec // track-serial's shape
	in      trackInput
	run     *pipelineRun
	model   *wrfsim.Model
	nestID  int
	nest    *wrfsim.Nest
	cells   []wrfsim.Cell
	splits  []wrfsim.Split
	sets    []scenario.Set
	machine string
}

// capture steps track-serial's pipeline to a fixed point of its schedule
// and keeps going (to the end of the round at most) until a nest is live.
func capture(r *runner) (*captured, error) {
	spec, ok := r.sizedSpec("track-serial")
	if !ok {
		return nil, fmt.Errorf("probes need the track-serial workload in the suite")
	}
	in, err := genTrackInput(spec, subSeed(r.env.seed, seedTrack, 0))
	if err != nil {
		return nil, err
	}
	run, err := in.build()
	if err != nil {
		return nil, err
	}
	at := min(300, spec.Steps)
	for run.pipe.StepCount() < at || (len(run.pipe.Nests()) == 0 && run.pipe.StepCount() < spec.Steps) {
		if err := run.step(); err != nil {
			return nil, err
		}
	}
	if len(run.pipe.Nests()) == 0 {
		return nil, fmt.Errorf("probes: no nest alive anywhere in track-serial's %d steps", spec.Steps)
	}
	c := &captured{spec: spec, in: in, run: run, model: run.pipe.Model(), machine: spec.Machine}
	// The median-area live nest.
	ids := make([]int, 0, len(run.pipe.Nests()))
	for id := range run.pipe.Nests() {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		ai, aj := run.pipe.Nests()[ids[i]].Region.Area(), run.pipe.Nests()[ids[j]].Region.Area()
		if ai != aj {
			return ai < aj
		}
		return ids[i] < ids[j]
	})
	c.nestID = ids[len(ids)/2]
	c.nest = run.pipe.Nests()[c.nestID]
	c.cells = c.model.Cells()
	c.splits, err = c.model.Splits(run.pipe.Config().WRFGrid)
	if err != nil {
		return nil, err
	}
	if churn, ok := r.sizedSpec("realloc-churn"); ok {
		if c.sets, err = churnSets(subSeed(r.env.seed, seedChurn, 0), min(churn.Sets, 100)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (r *runner) sizedSpec(name string) (workloadSpec, bool) {
	for _, s := range r.specs {
		if s.Name == name {
			return s, true
		}
	}
	// Not selected for this run (-only): size it from the suite.
	for _, w := range r.suite.Workloads {
		if w.Name == name {
			return w.sized(r.smoke), true
		}
	}
	return workloadSpec{}, false
}

// freshModel restores a private copy of the captured parent model, so a
// probe that steps it does not age the state other probes read.
func (c *captured) freshModel() (*wrfsim.Model, error) {
	m := c.model
	return wrfsim.RestoreModel(m.Config(), append([]float64(nil), m.QCloud().Data...), m.Cells(), m.RNGState(), m.Time(), m.StepCount())
}

// runProbes measures every probe-scoped per-layer metric, giving each
// probe `budget` of wall time.
func runProbes(r *runner, budget time.Duration) ([]layerResult, error) {
	c, err := capture(r)
	if err != nil {
		return nil, err
	}
	probes, cleanup, err := buildProbes(r, c)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	specs := map[string]layerSpec{}
	for _, ls := range layerCatalog {
		specs[ls.Name] = ls
	}
	var rows []layerResult
	for _, p := range probes {
		ls, ok := specs[p.name]
		if !ok {
			return rows, fmt.Errorf("probe %s is not in the layer catalog", p.name)
		}
		var xs []float64
		deadline := time.Now().Add(budget)
		for len(xs) < 3 || (time.Now().Before(deadline) && len(xs) < 200) {
			v, err := p.sample()
			if err != nil {
				return rows, fmt.Errorf("probe %s: %w", p.name, err)
			}
			xs = append(xs, v)
			if p.once {
				break
			}
		}
		rows = append(rows, layerResult{Layer: ls.Layer, Name: ls.Name, Unit: ls.Unit, Median: median(xs),
			Spread: iqrSpread(xs), Samples: len(xs), Moves: ls.Moves})
	}
	return rows, nil
}

func buildProbes(r *runner, c *captured) ([]probe, func(), error) {
	var probes []probe
	var cleanups []func()
	cleanup := func() {
		for _, f := range cleanups {
			f()
		}
	}
	add := func(name string, sample func() (float64, error)) {
		probes = append(probes, probe{name: name, sample: sample})
	}
	addOnce := func(name string, sample func() (float64, error)) {
		probes = append(probes, probe{name: name, once: true, sample: sample})
	}
	pipeCfg := c.run.pipe.Config()
	mcfg := c.model.Config()

	// field: the fused advection kernel on the parent domain, and the
	// separable Gaussian deposit of one live cell.
	{
		src := c.model.QCloud().Clone()
		dst := field.New(src.NX, src.NY)
		sp := field.AdvectSpec{UX: mcfg.FlowU * mcfg.Dt, VY: mcfg.FlowV * mcfg.Dt, GNX: mcfg.NX, GNY: mcfg.NY,
			Decay: math.Exp(-mcfg.Dt / mcfg.DecayTau)}
		cells := float64(src.NX * src.NY)
		nsPerCell := func() float64 {
			return perOp(20, inNS, func() { field.AdvectDecay(dst, src, sp) }) / cells
		}
		add("field.advect_ns_per_cell", func() (float64, error) { return nsPerCell(), nil })
		// One float64 read and one written per cell, computed from the
		// array sizes — not measured memory traffic.
		add("field.advect_gbps_computed", func() (float64, error) { return 16 / nsPerCell(), nil })

		cell := c.cells[0]
		for _, k := range c.cells {
			if k.Intensity() > cell.Intensity() {
				cell = k
			}
		}
		f := src.Clone()
		inv := 1 / (2 * cell.Radius * cell.Radius)
		x0, x1 := max(0, int(cell.X-3*cell.Radius)), min(f.NX-1, int(cell.X+3*cell.Radius)+1)
		y0, y1 := max(0, int(cell.Y-3*cell.Radius)), min(f.NY-1, int(cell.Y+3*cell.Radius)+1)
		add("field.deposit_us", func() (float64, error) {
			return perOp(50, inUS, func() { f.AddSeparableGaussian(cell.X, cell.Y, 1e-9, inv, x0, y0, x1, y1, 0, 0) }), nil
		})
	}

	// wrfsim: parent step, serial nest step, split decomposition, and the
	// distributed nest's step and redistribution on the compute world.
	{
		add("wrfsim.model_step_us", func() (float64, error) {
			m, err := c.freshModel()
			if err != nil {
				return 0, err
			}
			return perOp(10, inUS, m.Step), nil
		})
		nest, err := c.model.SpawnNest(c.nestID, c.nest.Region)
		if err != nil {
			return nil, cleanup, err
		}
		add("wrfsim.nest_step_us", func() (float64, error) {
			return perOp(5, inUS, func() { nest.Step(c.model) }), nil
		})
		add("wrfsim.splits_us", func() (float64, error) {
			var err error
			v := perOp(5, inUS, func() { _, err = c.model.Splits(pipeCfg.WRFGrid) })
			return v, err
		})

		tr := c.run.pipe.Tracker()
		world, err := mpi.NewWorld(tr.Grid().Size(), mpi.Config{Net: tr.Net()})
		if err != nil {
			return nil, cleanup, err
		}
		// The nest's allocated sub-rectangle, clamped like the pipeline
		// does so every block keeps at least the halo width.
		procs := tr.Allocation().Rects[c.nestID]
		nx, ny := c.nest.Size()
		procs = geom.NewRect(procs.X0, procs.Y0, min(procs.Width(), max(1, nx/2)), min(procs.Height(), max(1, ny/2)))
		pn, err := c.model.NewParallelNest(c.nestID, c.nest.Region, tr.Grid(), procs)
		if err != nil {
			return nil, cleanup, err
		}
		add("wrfsim.pnest_step_us", func() (float64, error) {
			var err error
			v := perOp(2, inUS, func() {
				if e := pn.Step(world, mcfg, c.cells); e != nil {
					err = e
				}
			})
			return v, err
		})
		// Redistribute between the allocated rectangle and its left half
		// (or top half for a one-column rectangle), back and forth.
		half := geom.NewRect(procs.X0, procs.Y0, max(1, procs.Width()/2), procs.Height())
		if procs.Width() == 1 {
			half = geom.NewRect(procs.X0, procs.Y0, 1, max(1, procs.Height()/2))
		}
		targets := []geom.Rect{half, procs}
		k := 0
		add("wrfsim.pnest_redistribute_us", func() (float64, error) {
			var err error
			v := perOp(2, inUS, func() {
				if _, e := pn.Redistribute(world, targets[k%2]); e != nil {
					err = e
				}
				k++
			})
			return v, err
		})
	}

	// mpi: what one World.Run costs before any rank does anything, and the
	// primitives the distributed nests are built from.
	{
		worldOf := func(n int) (*mpi.World, *mpi.Comm, error) {
			m, err := elastic.BuildMachine(n, c.machine, 0)
			if err != nil {
				return nil, nil, err
			}
			w, err := mpi.NewWorld(n, mpi.Config{Net: m.Net})
			if err != nil {
				return nil, nil, err
			}
			all, err := w.All()
			return w, all, err
		}
		w16, _, err := worldOf(16)
		if err != nil {
			return nil, cleanup, err
		}
		w64, all64, err := worldOf(64)
		if err != nil {
			return nil, cleanup, err
		}
		w256, _, err := worldOf(256)
		if err != nil {
			return nil, cleanup, err
		}
		empty := func(*mpi.Rank) {}
		dispatch := func(w *mpi.World) func() (float64, error) {
			return func() (float64, error) {
				var err error
				v := perOp(20, inUS, func() {
					if e := w.Run(empty); e != nil {
						err = e
					}
				})
				return v, err
			}
		}
		add("mpi.run_dispatch_us.r16", dispatch(w16))
		add("mpi.run_dispatch_us.r256", dispatch(w256))

		payload := make([]float64, 1024)
		bufs := make([][]float64, 2)
		const trips = 64
		add("mpi.sendrecv_pingpong_us", func() (float64, error) {
			t := time.Now()
			err := w16.Run(func(r *mpi.Rank) {
				switch r.ID() {
				case 0:
					for k := 0; k < trips; k++ {
						r.Send(1, k, payload)
						bufs[0] = r.RecvInto(1, k, bufs[0])
					}
				case 1:
					for k := 0; k < trips; k++ {
						bufs[1] = r.RecvInto(0, k, bufs[1])
						r.Send(0, k, payload)
					}
				}
			})
			return float64(time.Since(t).Nanoseconds()) / trips / inUS, err
		})
		scratch := make([]mpi.Scratch, 64)
		const exchanges = 16
		add("mpi.alltoallv_into_us.r64", func() (float64, error) {
			t := time.Now()
			err := w64.Run(func(r *mpi.Rank) {
				s := &scratch[r.ID()]
				for k := 0; k < exchanges; k++ {
					s.Reset()
					send := s.Rows(64)
					send[(r.ID()+32)%64] = s.Buf(256)[:256]
					all64.AlltoallvInto(r, send, s)
				}
			})
			return float64(time.Since(t).Nanoseconds()) / exchanges / inUS, err
		})
		const barriers = 16
		add("mpi.barrier_us.r64", func() (float64, error) {
			t := time.Now()
			err := w64.Run(func(r *mpi.Rank) {
				for k := 0; k < barriers; k++ {
					all64.Barrier(r)
				}
			})
			return float64(time.Since(t).Nanoseconds()) / barriers / inUS, err
		})
		add("mpi.allocs_per_run", func() (float64, error) {
			const runs = 20
			var err error
			m0 := readMem()
			for i := 0; i < runs; i++ {
				if e := w256.Run(empty); e != nil {
					err = e
				}
			}
			return float64(readMem().mallocs-m0.mallocs) / runs, err
		})
	}

	// pda: one parallel data analysis of the captured parent state on the
	// pipeline's own analysis-world shape.
	{
		m, err := elastic.BuildMachine(pipeCfg.AnalysisRanks, "switched", 0)
		if err != nil {
			return nil, cleanup, err
		}
		world, err := mpi.NewWorld(pipeCfg.AnalysisRanks, mpi.Config{Net: m.Net})
		if err != nil {
			return nil, cleanup, err
		}
		loader := func(rank int) (wrfsim.Split, error) { return c.splits[rank], nil }
		clusters := 0
		add("pda.run_parallel_us", func() (float64, error) {
			var err error
			v := perOp(3, inUS, func() {
				res, e := pda.RunParallel(world, pipeCfg.WRFGrid, loader, pipeCfg.PDA)
				if e != nil {
					err = e
					return
				}
				clusters = len(res.Clusters)
			})
			return v, err
		})
		addOnce("pda.clusters_per_call", func() (float64, error) { return float64(clusters), nil })
	}

	// alloc, htree, redist, topology, perfmodel: the pieces of one
	// Tracker.Apply, on transitions recorded from the churn sets on the
	// largest grid of the sweep.
	if len(c.sets) > 1 {
		big, err := elastic.BuildMachine(procGrid[len(procGrid)-1], c.machine, 0)
		if err != nil {
			return nil, cleanup, err
		}
		trans, err := recordTransitions(big, c.sets)
		if err != nil {
			return nil, cleanup, err
		}
		i := 0
		next := func() transition { i++; return trans[i%len(trans)] }
		add("alloc.scratch_us", func() (float64, error) {
			var err error
			v := perOp(10, inUS, func() { _, err = alloc.Scratch(big.Grid, next().weights) })
			return v, err
		})
		add("alloc.diffusion_us", func() (float64, error) {
			var err error
			v := perOp(10, inUS, func() { t := next(); _, err = alloc.Diffusion(big.Grid, t.old, t.change) })
			return v, err
		})
		add("redist.build_plan_us", func() (float64, error) {
			var err error
			v := perOp(10, inUS, func() { _, err = redist.BuildPlan(big.Grid, next().plans[0].Transfer) })
			return v, err
		})
		add("redist.measure_us", func() (float64, error) {
			return perOp(10, inUS, func() { redist.Measure(big.Net, next().plans) }), nil
		})
		add("topology.alltoallv_time_us", func() (float64, error) {
			return perOp(10, inUS, func() { big.Net.AlltoallvTime(next().plans[0].Msgs) }), nil
		})
		add("perfmodel.predict_ns", func() (float64, error) {
			var err error
			procs := 0
			v := perOp(200, inNS, func() {
				t := next()
				procs = procs%big.Grid.Size() + 1
				_, err = big.Model.Predict(t.nx, t.ny, procs)
			})
			return v, err
		})

		// core: one whole Tracker.Apply per strategy and grid size — the
		// sweep over processor-set size the reallocation literature uses.
		for _, cores := range procGrid {
			for _, strat := range []core.Strategy{core.Scratch, core.Diffusion, core.Dynamic} {
				cores, strat := cores, strat
				addOnce(fmt.Sprintf("core.tracker_apply_us.%s.p%d", strat, cores), func() (float64, error) {
					tr, err := newTracker(cores, c.machine, strat)
					if err != nil {
						return 0, err
					}
					durs := make([]float64, 0, len(c.sets))
					for _, set := range c.sets {
						t := time.Now()
						if _, err := tr.Apply(set); err != nil {
							return 0, err
						}
						durs = append(durs, float64(time.Since(t).Nanoseconds())/inUS)
					}
					return median(durs), nil
				})
			}
		}
	}

	// core scaling: the same serial-nest problem at GOMAXPROCS=1 and at
	// nproc. NestWorkers defaults to GOMAXPROCS, so this is the only
	// place its parallel stepping is compared with the plain
	// single-threaded baseline.
	addOnce("core.scaling_eff.gomaxprocs", func() (float64, error) {
		steps := min(600, c.spec.Steps)
		timeAt := func(procs int) (float64, error) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			run, err := c.in.build()
			if err != nil {
				return 0, err
			}
			t := time.Now()
			err = run.steps(steps)
			return time.Since(t).Seconds(), err
		}
		nproc := runtime.NumCPU()
		t1, err := timeAt(1)
		if err != nil {
			return 0, err
		}
		tn, err := timeAt(nproc)
		if err != nil {
			return 0, err
		}
		return t1 / tn / float64(nproc), nil
	})

	// service: what the scheduler adds around a job's bare pipeline
	// steps, and what one Submit costs.
	if fleet, ok := r.sizedSpec("serve-fleet"); ok {
		sched := service.NewScheduler(service.SchedulerConfig{Workers: 1})
		cleanups = append(cleanups, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			sched.Shutdown(ctx)
		})
		job := fleetJobConfig(fleet, subSeed(r.env.seed, seedFleet, 0, 0), fleet.JobSteps, 0, false)
		// Scheduled and bare runs alternate, two of each, so a slow spell of
		// the host lands on both sides of the difference.
		scheduled := func() (float64, error) {
			t := time.Now()
			snap, err := sched.Submit(job)
			if err != nil {
				return 0, err
			}
			for !snap.State.Terminal() {
				time.Sleep(200 * time.Microsecond)
				if snap, err = sched.Get(snap.ID); err != nil {
					return 0, err
				}
			}
			if snap.State != service.StateDone {
				return 0, fmt.Errorf("in-process job ended %s: %s", snap.State, snap.Error)
			}
			return ms(time.Since(t)), nil
		}
		bare := func() (float64, error) {
			spec := c.spec
			spec.ScheduleSteps = job.Steps
			in, err := genTrackInput(spec, job.Seed)
			if err != nil {
				return 0, err
			}
			run, err := in.build()
			if err != nil {
				return 0, err
			}
			var sum time.Duration
			for s := 0; s < job.Steps; s++ {
				if err := run.inject(); err != nil {
					return 0, err
				}
				t := time.Now()
				if err := run.pipe.Step(); err != nil {
					return 0, err
				}
				sum += time.Since(t)
			}
			return ms(sum), nil
		}
		addOnce("service.job_overhead_ms", func() (float64, error) {
			var whole, steps []float64
			for i := 0; i < 2; i++ {
				w, err := scheduled()
				if err != nil {
					return 0, err
				}
				b, err := bare()
				if err != nil {
					return 0, err
				}
				whole, steps = append(whole, w), append(steps, b)
			}
			return median(whole) - median(steps), nil
		})
		tiny := job
		tiny.Steps = 1
		add("service.submit_us", func() (float64, error) {
			t := time.Now()
			_, err := sched.Submit(tiny)
			return float64(time.Since(t).Nanoseconds()) / inUS, err
		})
	}

	// serve: one tile encode, and the field response cold (every tile
	// encoded) and warm (memoized body).
	{
		q := c.model.QCloud().Clone()
		tile := serve.TileRect(q.NX, q.NY, 0, 0)
		add("serve.encode_tile_us", func() (float64, error) {
			return perOp(20, inUS, func() { serve.EncodeTile(q, tile) }), nil
		})
		cache := serve.NewCache(64 << 20)
		step := 0
		add("serve.build_response_cold_us", func() (float64, error) {
			var err error
			v := perOp(5, inUS, func() {
				step++ // a new step is a new cache key: every tile misses
				snap := &serve.Snapshot{Step: step, Vars: map[string]*field.Field{"qcloud": q}}
				_, err = serve.BuildResponse(cache, "probe", "qcloud", snap, q.Bounds())
			})
			return v, err
		})
		snap := &serve.Snapshot{Step: -1, Vars: map[string]*field.Field{"qcloud": q}}
		add("serve.build_response_warm_ns", func() (float64, error) {
			var err error
			v := perOp(1000, inNS, func() { _, err = serve.BuildResponse(cache, "probe", "qcloud", snap, q.Bounds()) })
			return v, err
		})
	}

	// obs: the always-on price of tracing being off — a nil-tracer call.
	{
		var tr *obs.Tracer
		add("obs.emit_disabled_ns", func() (float64, error) {
			return perOp(100000, inNS, func() { tr.EmitPhase(1, "model", time.Microsecond) }), nil
		})
	}
	return probes, cleanup, nil
}

// transition is one recorded adaptation point of the churn sets: the
// allocation before it, the change, the weights of the new set, the
// redistribution plans to the diffusion allocation, and one nest size.
type transition struct {
	old     *alloc.Allocation
	change  alloc.Change
	weights map[int]float64
	plans   []redist.Plan
	nx, ny  int
}

// recordTransitions walks the sets with the diffusion allocator, the way
// Tracker.Apply does, and keeps the inputs of every step that
// redistributes at least one retained nest.
func recordTransitions(m elastic.Machine, sets []scenario.Set) ([]transition, error) {
	opts := core.DefaultOptions()
	weightsOf := func(set scenario.Set) (map[int]float64, map[int][2]int, error) {
		w := map[int]float64{}
		sizes := map[int][2]int{}
		share := max(1, m.Grid.Size()/len(set))
		for _, n := range set {
			nx, ny := n.FineSize(opts.Ratio)
			p, err := m.Model.Predict(nx, ny, share)
			if err != nil {
				return nil, nil, err
			}
			w[n.ID] = p
			sizes[n.ID] = [2]int{nx, ny}
		}
		return w, sizes, nil
	}
	w0, _, err := weightsOf(sets[0])
	if err != nil {
		return nil, err
	}
	cur, err := alloc.Scratch(m.Grid, w0)
	if err != nil {
		return nil, err
	}
	var out []transition
	for i := 1; i < len(sets); i++ {
		w, sizes, err := weightsOf(sets[i])
		if err != nil {
			return nil, err
		}
		d := scenario.DiffSets(sets[i-1], sets[i])
		ch := alloc.Change{Deleted: d.Deleted, Retained: map[int]float64{}, Added: map[int]float64{}}
		for _, id := range d.Retained {
			ch.Retained[id] = w[id]
		}
		for _, id := range d.Added {
			ch.Added[id] = w[id]
		}
		next, err := alloc.Diffusion(m.Grid, cur, ch)
		if err != nil {
			return nil, err
		}
		plans, err := redist.PlansForChange(m.Grid, cur.Rects, next.Rects, sizes, opts.ElemBytes)
		if err != nil {
			return nil, err
		}
		if len(plans) > 0 {
			nx, ny := sets[i][0].FineSize(opts.Ratio)
			out = append(out, transition{old: cur, change: ch, weights: w, plans: plans, nx: nx, ny: ny})
		}
		cur = next
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("probes: no churn transition retains a nest")
	}
	return out, nil
}
