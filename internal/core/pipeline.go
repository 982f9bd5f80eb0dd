package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nestdiff/internal/faults"
	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
	"nestdiff/internal/obs"
	"nestdiff/internal/pda"
	"nestdiff/internal/scenario"
	"nestdiff/internal/topology"
	"nestdiff/internal/wrfsim"
)

// PipelineConfig wires the full framework of contribution 2: the running
// parent simulation, the periodic parallel data analysis, nest
// spawn/delete, and processor reallocation.
type PipelineConfig struct {
	// WRFGrid is the process decomposition of the parent simulation (its
	// size is the maximum processor count P shared by the nests).
	WRFGrid geom.Grid
	// AnalysisRanks is N, the number of data-analysis processes. The
	// paper runs PDA "on a different set of processors than the
	// processors running the WRF simulation".
	AnalysisRanks int
	// Interval is the number of parent steps between PDA invocations (the
	// paper analyzes every 2 simulated minutes, i.e. every step at the
	// default Dt).
	Interval int
	// PDA carries the detection thresholds.
	PDA pda.Options
	// MaxNests caps the number of simultaneous nests, keeping the
	// strongest clusters (PDA emits clusters in decreasing cloud-cover
	// order). Zero means unlimited.
	MaxNests int
	// Distributed, when true, runs every nest block-distributed over its
	// allocated processor sub-rectangle (wrfsim.ParallelNest) and executes
	// each reallocation as a real in-place Alltoallv — the paper's actual
	// runtime arrangement. When false, nests run as serial simulations
	// and redistribution is modelled analytically only.
	Distributed bool
}

// DefaultPipelineConfig returns a laptop-scale configuration: a 16×16
// process grid (256 ranks) with 16 analysis ranks, analyzing every step.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		WRFGrid:       geom.NewGrid(16, 16),
		AnalysisRanks: 16,
		Interval:      1,
		PDA:           pda.DefaultOptions(),
		MaxNests:      9,
	}
}

// AdaptationEvent describes one PDA invocation and its consequences.
type AdaptationEvent struct {
	Step    int
	Set     scenario.Set
	Diff    scenario.Diff
	Metrics StepMetrics
	// ExecutedRedistTime is the virtual time of the *executed* Alltoallv
	// exchanges (distributed pipelines only; the analytical counterpart is
	// Metrics.RedistTime).
	ExecutedRedistTime float64
}

// Pipeline runs the end-to-end framework: model steps, nested simulations,
// periodic detection, and reallocation through a Tracker.
type Pipeline struct {
	cfg     PipelineConfig
	model   *wrfsim.Model
	tracker *Tracker
	world   *mpi.World // analysis world (N ranks)

	// Serial mode.
	nests map[int]*wrfsim.Nest
	// Distributed mode: nests over the compute world (P ranks).
	dnests    map[int]*wrfsim.ParallelNest
	compWorld *mpi.World

	set    scenario.Set
	nextID int
	events []AdaptationEvent
	faults *faults.Plan
	tracer *obs.Tracer
	snaps  SnapshotSink

	// Step scratch, reused across steps: the cell snapshot and nest list
	// handed to distributed nest stepping, the sorted nest-ID work list,
	// the serial nest phase's task list and its worker pool, and the split
	// windows of the last PDA invocation.
	cellScratch  []wrfsim.Cell
	nestScratch  []*wrfsim.ParallelNest
	idScratch    []int
	taskScratch  []stepTask
	tasks        taskPool
	splitScratch []wrfsim.Split
}

// NewPipeline assembles a pipeline around an existing model and tracker.
func NewPipeline(m *wrfsim.Model, tr *Tracker, cfg PipelineConfig) (*Pipeline, error) {
	if m == nil || tr == nil {
		return nil, fmt.Errorf("core: nil model or tracker")
	}
	if cfg.Interval < 1 {
		return nil, fmt.Errorf("core: invalid analysis interval %d", cfg.Interval)
	}
	if cfg.AnalysisRanks < 1 || cfg.AnalysisRanks > cfg.WRFGrid.Size() {
		return nil, fmt.Errorf("core: %d analysis ranks for %d WRF ranks",
			cfg.AnalysisRanks, cfg.WRFGrid.Size())
	}
	net, err := topology.NewSwitched(cfg.AnalysisRanks, 8, topology.DefaultSwitchedParams())
	if err != nil {
		return nil, err
	}
	world, err := mpi.NewWorld(cfg.AnalysisRanks, mpi.Config{Net: net})
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:     cfg,
		model:   m,
		tracker: tr,
		world:   world,
		nests:   make(map[int]*wrfsim.Nest),
		nextID:  1,
	}
	p.tasks.fn = p.runStepTask
	if cfg.Distributed {
		p.dnests = make(map[int]*wrfsim.ParallelNest)
		p.compWorld, err = mpi.NewWorld(tr.Grid().Size(), mpi.Config{Net: tr.Net()})
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Close stops the rank workers of the pipeline's mpi worlds (see
// mpi.World.Close). It is idempotent; a step that needs a world after
// Close fails.
func (p *Pipeline) Close() {
	p.world.Close()
	if p.compWorld != nil {
		p.compWorld.Close()
	}
}

// Events returns the adaptation events recorded so far.
func (p *Pipeline) Events() []AdaptationEvent { return p.events }

// Nests returns the live serial nested simulations, keyed by nest ID
// (empty in distributed mode).
func (p *Pipeline) Nests() map[int]*wrfsim.Nest { return p.nests }

// DistributedNests returns the live distributed nests, keyed by nest ID
// (empty unless the pipeline runs in distributed mode).
func (p *Pipeline) DistributedNests() map[int]*wrfsim.ParallelNest { return p.dnests }

// ActiveSet returns the current nest configuration.
func (p *Pipeline) ActiveSet() scenario.Set { return p.set }

// Config returns the pipeline configuration.
func (p *Pipeline) Config() PipelineConfig { return p.cfg }

// Model returns the parent weather model the pipeline drives.
func (p *Pipeline) Model() *wrfsim.Model { return p.model }

// Tracker returns the reallocation tracker the pipeline applies nest
// changes through.
func (p *Pipeline) Tracker() *Tracker { return p.tracker }

// StepCount returns the number of parent steps completed so far.
func (p *Pipeline) StepCount() int { return p.model.StepCount() }

// SetFaultPlan installs a fault-injection plan on the pipeline and its
// mpi worlds (nil removes it). The plan's step-scoped rules key off the
// pipeline's parent step counter; a nil plan costs one pointer check per
// step and nothing per message.
func (p *Pipeline) SetFaultPlan(fp *faults.Plan) {
	p.faults = fp
	p.world.SetFaults(fp)
	if p.compWorld != nil {
		p.compWorld.SetFaults(fp)
	}
}

// SetTracer installs a structured tracer on the pipeline, its tracker
// and its live distributed nests (nil removes it). With a nil tracer
// every event site costs one pointer check — the same discipline as the
// fault-injection hooks.
func (p *Pipeline) SetTracer(tr *obs.Tracer) {
	p.tracer = tr
	p.tracker.SetTracer(tr)
	for _, n := range p.dnests {
		n.SetTracer(tr)
	}
}

// SnapshotSink receives the pipeline at the end of every completed step
// — a consistent boundary where no model, nest or tracker state is
// mid-mutation — so a read-path serving tier can publish copy-on-write
// field snapshots without ever touching the pipeline between boundaries.
// The sink runs on the stepping goroutine; anything it reads from the
// pipeline must be copied before the call returns.
type SnapshotSink interface {
	PublishStep(p *Pipeline)
}

// SetSnapshotSink installs a step-boundary snapshot sink (nil removes
// it). Like the tracer and fault hooks, a nil sink costs one pointer
// check per step — the sink is runtime wiring, never checkpointed.
func (p *Pipeline) SetSnapshotSink(s SnapshotSink) { p.snaps = s }

// Step advances the pipeline by exactly one parent step — the parent
// model, every live nest, and (at analysis intervals) one PDA invocation
// with its reallocation. It is the incremental building block that Run,
// RunContext and the job scheduler are built on.
func (p *Pipeline) Step() error {
	if p.faults != nil {
		step := p.model.StepCount() + 1
		p.faults.SetStep(step)
		p.faults.BeforeStep(step) // may stall (slow step) or panic (injected worker crash)
	}
	tr := p.tracer
	var t0, stepStart time.Time
	if tr != nil {
		stepStart = time.Now()
		t0 = stepStart
	}
	// The cell half alone is the "model" phase: the field half runs in
	// the "nests" phase, beside the nests (stepNests).
	p.model.StepCells()
	step := p.model.StepCount()
	if tr != nil {
		now := time.Now()
		tr.EmitPhase(step, "model", now.Sub(t0))
		t0 = now
	}
	if err := p.stepNests(step); err != nil {
		return err
	}
	if tr != nil {
		tr.EmitPhase(step, "nests", time.Since(t0))
	}
	if step%p.cfg.Interval == 0 {
		if err := p.adapt(); err != nil {
			return err
		}
	}
	if tr != nil {
		tr.EmitStep(step, time.Since(stepStart))
	}
	if p.snaps != nil {
		p.snaps.PublishStep(p)
	}
	return nil
}

// stepNests advances the parent's field half (wrfsim.Model.StepField)
// and every live nest by one parent step. Distributed nests go through one
// wrfsim.StepNests dispatch over exactly the ranks that own a nest block —
// the ranks are the concurrency — right after the field half. Serial nests
// own their fine fields and read only the parent's cells, as does the
// field half, so the field half and the nests run as one bounded task
// pool, up to GOMAXPROCS at a time and largest first, with results
// bit-identical to sequential stepping in any schedule.
func (p *Pipeline) stepNests(step int) error {
	tr := p.tracer
	if p.cfg.Distributed {
		p.stepField(step)
		if len(p.dnests) == 0 {
			return nil
		}
		ids := sortedIDs(&p.idScratch, p.dnests)
		nests := p.nestScratch[:0]
		for _, id := range ids {
			nests = append(nests, p.dnests[id])
		}
		p.nestScratch = nests
		// One cell snapshot serves every nest: they only read it.
		p.cellScratch = p.model.AppendCells(p.cellScratch[:0])
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		if err := wrfsim.StepNests(p.compWorld, p.model.Config(), p.cellScratch, nests); err != nil {
			return err
		}
		if tr != nil {
			// The nests advanced together, so each one's event carries the
			// duration of the dispatch they shared.
			dur := time.Since(t0).Nanoseconds()
			for _, id := range ids {
				tr.Emit(obs.Event{Kind: obs.KindNestStep, Step: step, NestID: id, DurNS: dur})
			}
		}
		return nil
	}
	if len(p.nests) == 0 {
		// Nothing to run beside: no task pool.
		p.stepField(step)
		return nil
	}
	ids := sortedIDs(&p.idScratch, p.nests)
	// The field half is the task with no nest. Its work is one pass over
	// the parent grid; a nest's is NestRatio substeps over its fine grid.
	cfg := p.model.Config()
	tasks := append(p.taskScratch[:0], stepTask{work: cfg.NX * cfg.NY})
	for _, id := range ids {
		n := p.nests[id]
		nx, ny := n.Size()
		tasks = append(tasks, stepTask{nest: n, work: nx * ny * wrfsim.NestRatio})
	}
	slices.SortStableFunc(tasks, func(a, b stepTask) int { return b.work - a.work })
	p.taskScratch = tasks
	p.tasks.run(runtime.GOMAXPROCS(0), len(tasks))
	return nil
}

// runStepTask runs task i of the serial nest phase (p.taskScratch): the
// parent's field half, or one nest's step. It is the pipeline's task pool
// function, bound once, so handing it to the pool allocates nothing.
func (p *Pipeline) runStepTask(i int) {
	step := p.model.StepCount()
	nest := p.taskScratch[i].nest
	if nest == nil {
		p.stepField(step)
		return
	}
	tr := p.tracer
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	nest.Step(p.model)
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindNestStep, Step: step,
			NestID: nest.ID, DurNS: time.Since(t0).Nanoseconds()})
	}
}

// stepTask is one unit of a serial step's nest phase: a nest's step, or
// the parent's field half when nest is nil. work orders the tasks, largest
// first, so the longest task never starts last.
type stepTask struct {
	nest *wrfsim.Nest
	work int
}

// stepField runs the parent's field half and reports its duration as its
// own event, as each nest's step is.
func (p *Pipeline) stepField(step int) {
	tr := p.tracer
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	p.model.StepField()
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindParentField, Step: step, DurNS: time.Since(t0).Nanoseconds()})
	}
}

// sortedIDs fills *scratch with the keys of a nest map, sorted: nest work
// in a deterministic order, with no allocation once the scratch has grown.
func sortedIDs[N any](scratch *[]int, nests map[int]N) []int {
	ids := (*scratch)[:0]
	for id := range nests {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	*scratch = ids
	return ids
}

// taskPool invokes fn(i) for every i in [0, n) on at most workers
// goroutines, the caller's among them; one worker (or one item) runs
// inline. A panic in any fn is re-raised on the caller after the group
// drains, so callers' recover paths behave as they do for sequential
// stepping. The pipeline keeps one pool, with fn bound once, so a run
// allocates nothing but the goroutines it starts.
type taskPool struct {
	fn      func(int)
	n       int
	next    atomic.Int64
	wg      sync.WaitGroup
	panicMu sync.Mutex
	panicV  any
}

func (g *taskPool) run(workers, n int) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			g.fn(i)
		}
		return
	}
	workers = min(workers, n)
	g.n = n
	g.next.Store(0)
	g.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go g.work()
	}
	g.work()
	g.wg.Wait()
	if v := g.panicV; v != nil {
		g.panicV = nil
		panic(v)
	}
}

// work runs items until none is left, keeping the first panic for run.
func (g *taskPool) work() {
	defer g.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			g.panicMu.Lock()
			if g.panicV == nil {
				g.panicV = r
			}
			g.panicMu.Unlock()
		}
	}()
	for {
		i := int(g.next.Add(1)) - 1
		if i >= g.n {
			return
		}
		g.fn(i)
	}
}

// Run advances the pipeline by n parent steps, invoking PDA and
// reallocation at every analysis interval.
func (p *Pipeline) Run(n int) error {
	return p.RunContext(context.Background(), n)
}

// RunContext advances the pipeline by n parent steps, stopping early with
// the context's error if ctx is cancelled. Cancellation is checked between
// parent steps, so the pipeline is always left at a consistent step
// boundary from which SaveState or further Run calls can continue.
func (p *Pipeline) RunContext(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := p.Step(); err != nil {
			return err
		}
	}
	return nil
}

// adapt runs one PDA invocation and applies the resulting nest changes.
func (p *Pipeline) adapt() error {
	tr := p.tracer
	step := p.model.StepCount()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	splits, err := p.model.SplitWindows(p.splitScratch, p.cfg.WRFGrid)
	if err != nil {
		return err
	}
	p.splitScratch = splits
	loader := func(rank int) (wrfsim.Split, error) {
		if rank < 0 || rank >= len(splits) {
			return wrfsim.Split{}, fmt.Errorf("core: no split for rank %d", rank)
		}
		return splits[rank], nil
	}
	res, err := pda.RunParallel(p.world, p.cfg.WRFGrid, loader, p.cfg.PDA)
	if err != nil {
		return err
	}
	rects := res.Rects
	if p.cfg.MaxNests > 0 && len(rects) > p.cfg.MaxNests {
		rects = rects[:p.cfg.MaxNests]
	}
	newSet := p.matchROIs(rects)
	diff := scenario.DiffSets(p.set, newSet)
	var prevRects map[int]geom.Rect
	if tr != nil {
		now := time.Now()
		tr.EmitPhase(step, "pda", now.Sub(t0))
		t0 = now
		if a := p.tracker.Allocation(); a != nil {
			prevRects = make(map[int]geom.Rect, len(a.Rects))
			for id, r := range a.Rects {
				prevRects[id] = r
			}
		}
		p.tracker.SetTraceStep(step)
	}
	metrics, err := p.tracker.Apply(newSet)
	if err != nil {
		return err
	}
	if tr != nil {
		now := time.Now()
		tr.EmitPhase(step, "realloc", now.Sub(t0))
		t0 = now
	}

	event := AdaptationEvent{
		Step:    step,
		Set:     newSet,
		Diff:    diff,
		Metrics: metrics,
	}
	if p.cfg.Distributed {
		if err := p.reconcileDistributed(newSet, diff, &event); err != nil {
			return err
		}
	} else if err := p.reconcileSerial(newSet, diff); err != nil {
		return err
	}
	if tr != nil {
		tr.EmitPhase(step, "reconcile", time.Since(t0))
		p.traceAdaptation(step, newSet, diff, prevRects, event)
	}

	p.set = newSet
	p.events = append(p.events, event)
	return nil
}

// traceAdaptation emits the nest lifecycle events of one adaptation point
// (spawns, deletions, allocation moves of retained nests) plus the
// adaptation summary event itself.
func (p *Pipeline) traceAdaptation(step int, newSet scenario.Set, diff scenario.Diff, prevRects map[int]geom.Rect, ev AdaptationEvent) {
	tr := p.tracer
	for _, id := range diff.Deleted {
		tr.Emit(obs.Event{Kind: obs.KindNestDelete, Step: step, NestID: id})
	}
	var newRects map[int]geom.Rect
	if a := p.tracker.Allocation(); a != nil {
		newRects = a.Rects
	}
	for _, id := range diff.Added {
		e := obs.Event{Kind: obs.KindNestSpawn, Step: step, NestID: id}
		if spec, ok := newSet.ByID(id); ok {
			e.Detail = fmt.Sprintf("region %v procs %v", spec.Region, newRects[id])
		}
		tr.Emit(e)
	}
	for _, id := range diff.Retained {
		oldR, okOld := prevRects[id]
		newR, okNew := newRects[id]
		if okOld && okNew && oldR != newR {
			tr.Emit(obs.Event{Kind: obs.KindNestMove, Step: step, NestID: id,
				Detail: fmt.Sprintf("procs %v -> %v", oldR, newR)})
		}
	}
	tr.Emit(obs.Event{
		Kind:        obs.KindAdapt,
		Step:        step,
		Strategy:    ev.Metrics.Used.String(),
		Predicted:   ev.Metrics.PredictedExecTime + ev.Metrics.PredictedRedistTime,
		Actual:      ev.Metrics.ExecTime + ev.Metrics.RedistTime,
		HopBytes:    ev.Metrics.Redist.HopBytes,
		RedistBytes: int64(ev.Metrics.Redist.RemoteBytes),
		Detail: fmt.Sprintf("%d nests (+%d -%d =%d)",
			len(newSet), len(diff.Added), len(diff.Deleted), len(diff.Retained)),
	})
}

// reconcileSerial updates the serial nested simulations: delete vanished
// nests (feeding their state back) and spawn new nests. A retained nest
// keeps its region (MatchROIs), so it steps on as it is.
func (p *Pipeline) reconcileSerial(newSet scenario.Set, diff scenario.Diff) error {
	for _, id := range diff.Deleted {
		if nest, ok := p.nests[id]; ok {
			nest.Feedback(p.model)
			delete(p.nests, id)
		}
	}
	for _, spec := range newSet {
		if _, exists := p.nests[spec.ID]; exists {
			continue
		}
		nest, err := p.model.SpawnNest(spec.ID, spec.Region)
		if err != nil {
			return err
		}
		p.nests[spec.ID] = nest
	}
	return nil
}

// reconcileDistributed updates the distributed nests: vanished nests feed
// back and release their rank shares for later nests; retained nests
// whose processor sub-rectangle changed execute the in-place Alltoallv;
// new nests scatter onto their allocated sub-rectangles. The executed
// exchange time is recorded on the event.
func (p *Pipeline) reconcileDistributed(newSet scenario.Set, diff scenario.Diff, event *AdaptationEvent) error {
	for _, id := range diff.Deleted {
		if nest, ok := p.dnests[id]; ok {
			nest.Feedback(p.model)
			nest.Release()
			delete(p.dnests, id)
		}
	}
	rects := p.tracker.Allocation().Rects
	for _, spec := range newSet {
		procs, ok := rects[spec.ID]
		if !ok {
			return fmt.Errorf("core: nest %d has no allocation", spec.ID)
		}
		nx, ny := spec.FineSize(wrfsim.NestRatio)
		procs = usableProcs(procs, nx, ny)
		if nest, exists := p.dnests[spec.ID]; exists {
			if nest.Procs() == procs {
				continue
			}
			elapsed, err := nest.Redistribute(p.compWorld, procs)
			if err != nil {
				return err
			}
			event.ExecutedRedistTime += elapsed
			continue
		}
		nest, err := p.model.NewParallelNest(spec.ID, spec.Region, p.tracker.Grid(), procs)
		if err != nil {
			return err
		}
		nest.SetTracer(p.tracer)
		p.dnests[spec.ID] = nest
	}
	return nil
}

// usableProcs clamps a nest's processor sub-rectangle so that every
// rank's block stays at least as wide as the halo — WRF likewise cannot
// decompose a small domain over arbitrarily many ranks. The clamp keeps
// the allocation's north-west anchor, so the usable rectangle is always a
// sub-rectangle of the allocated one.
func usableProcs(procs geom.Rect, nx, ny int) geom.Rect {
	maxW := max(1, nx/wrfsim.HaloWidth)
	maxH := max(1, ny/wrfsim.HaloWidth)
	w := min(procs.Width(), maxW)
	h := min(procs.Height(), maxH)
	return geom.NewRect(procs.X0, procs.Y0, w, h)
}

// matchROIs assigns nest identities to the PDA output rectangles against
// the pipeline's current set.
func (p *Pipeline) matchROIs(rects []geom.Rect) scenario.Set {
	return MatchROIs(p.set, rects, &p.nextID)
}

// MatchROIs assigns nest identities to PDA output rectangles: a rectangle
// overlapping an existing nest's region retains that nest — ID *and*
// region, since a WRF nest domain is fixed once spawned ("a retained nest
// is one which was output by PDA in the previous invocation as well as in
// the current invocation", §IV); the rest are new nests numbered from
// *nextID. Each existing nest matches at most one rectangle (largest
// overlap wins, deterministically). No rectangles give a nil set, the
// value a checkpoint's gob round trip restores an empty set as.
func MatchROIs(prev scenario.Set, rects []geom.Rect, nextID *int) scenario.Set {
	if len(rects) == 0 {
		return nil
	}
	used := make(map[int]bool, len(prev))
	out := make(scenario.Set, 0, len(rects))
	type match struct {
		rectIdx int
		id      int
		overlap int
	}
	var matches []match
	for ri, r := range rects {
		for _, spec := range prev {
			if ov := r.Intersect(spec.Region).Area(); ov > 0 {
				matches = append(matches, match{ri, spec.ID, ov})
			}
		}
	}
	// Greedy best-overlap matching, deterministic order.
	for i := 0; i < len(matches); i++ {
		for j := i + 1; j < len(matches); j++ {
			mi, mj := matches[i], matches[j]
			if mj.overlap > mi.overlap ||
				(mj.overlap == mi.overlap && (mj.rectIdx < mi.rectIdx ||
					(mj.rectIdx == mi.rectIdx && mj.id < mi.id))) {
				matches[i], matches[j] = matches[j], matches[i]
			}
		}
	}
	assigned := make(map[int]int, len(rects)) // rect index → nest ID
	for _, m := range matches {
		if _, done := assigned[m.rectIdx]; done || used[m.id] {
			continue
		}
		assigned[m.rectIdx] = m.id
		used[m.id] = true
	}
	// Retained nests first (frozen regions), then new nests whose
	// rectangles do not overlap any already-accepted region — WRF sibling
	// domains must be disjoint, and a new ROI that overlaps a retained
	// nest is already being simulated at high resolution there.
	for ri := range rects {
		id, ok := assigned[ri]
		if !ok {
			continue
		}
		if id >= *nextID {
			*nextID = id + 1
		}
		spec, _ := prev.ByID(id)
		out = append(out, spec)
	}
	for ri, r := range rects {
		if _, retained := assigned[ri]; retained {
			continue
		}
		overlapsExisting := false
		for _, spec := range out {
			if r.Overlaps(spec.Region) {
				overlapsExisting = true
				break
			}
		}
		if overlapsExisting {
			continue
		}
		out = append(out, scenario.NestSpec{ID: *nextID, Region: r})
		*nextID++
	}
	return out
}
