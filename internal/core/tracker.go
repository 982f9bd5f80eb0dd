// Package core is the paper's framework: it tracks multiple dynamically
// varying nests across adaptation points, reallocates processors with
// either the partition-from-scratch strategy (§IV-A), the tree-based
// hierarchical diffusion strategy (§IV-B), or the dynamic strategy that
// predicts both and picks the cheaper (§IV-C), and accounts for both the
// predicted and the "actual" (oracle/contention-modelled) execution and
// redistribution costs that the evaluation section reports.
package core

import (
	"fmt"
	"time"

	"nestdiff/internal/alloc"
	"nestdiff/internal/geom"
	"nestdiff/internal/obs"
	"nestdiff/internal/perfmodel"
	"nestdiff/internal/redist"
	"nestdiff/internal/scenario"
	"nestdiff/internal/topology"
	"nestdiff/internal/wrfsim"
)

// Strategy selects the reallocation policy.
type Strategy int

const (
	// Scratch rebuilds the Huffman tree ignoring the current allocation.
	Scratch Strategy = iota
	// Diffusion reorganizes the existing tree (Algorithm 3).
	Diffusion
	// Dynamic predicts execution + redistribution time for both and picks
	// the smaller sum (§IV-C).
	Dynamic
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Scratch:
		return "scratch"
	case Diffusion:
		return "diffusion"
	case Dynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures a Tracker.
type Options struct {
	// ElemBytes is the per-grid-point payload redistributed for a nest
	// (all prognostic fields). WRF moves O(100) bytes per point; the
	// default is 256.
	ElemBytes int
	// ContentionBytesPerSec adds the link-contention term to *actual*
	// redistribution times. Zero disables it.
	ContentionBytesPerSec float64
	// PredictedContentionBytesPerSec is the dynamic strategy's calibrated
	// estimate of the contention term (§IV-C1 predictions). It deviates
	// from the actual constant, which is what makes the dynamic decisions
	// imperfect (10 of 12 in the paper). Zero disables the term in
	// predictions.
	PredictedContentionBytesPerSec float64
	// Ratio is the nest refinement ratio (3 in the paper).
	Ratio int
}

// DefaultOptions returns the evaluation defaults. ElemBytes models WRF's
// full per-column state (≈35 vertical levels × ~30 3D arrays × 4 bytes);
// the contention constant reflects the effective aggregate all-to-all
// bandwidth of a heavily shared torus partition.
func DefaultOptions() Options {
	return Options{
		ElemBytes:                      4096,
		ContentionBytesPerSec:          2e9,
		PredictedContentionBytesPerSec: 3e9,
		Ratio:                          wrfsim.NestRatio,
	}
}

// StepMetrics records one adaptation point.
type StepMetrics struct {
	// Used is the strategy that produced the new allocation (for Dynamic
	// this is the picked one).
	Used Strategy
	// RedistTime and ExecTime are the "actual" modelled costs of the
	// applied allocation: redistribution with contention, execution from
	// the oracle (max over simultaneously running nests).
	RedistTime float64
	ExecTime   float64
	// PredictedRedistTime and PredictedExecTime are the §IV-C predictions
	// for the applied allocation.
	PredictedRedistTime float64
	PredictedExecTime   float64
	// Redist carries the hop-bytes/overlap metrics of the applied
	// redistribution.
	Redist redist.Metrics
	// DynamicCorrect reports, for Dynamic steps with both candidates
	// available, whether the pick minimized the actual total.
	DynamicCorrect bool
	// CandidateTotals holds the actual exec+redist totals for both
	// candidates (indexed by Scratch and Diffusion) on Dynamic steps.
	CandidateTotals map[Strategy]float64
}

// Tracker owns the nest allocation state on one machine configuration.
type Tracker struct {
	grid     geom.Grid
	net      topology.Network
	model    *perfmodel.ExecModel
	oracle   *perfmodel.Oracle
	strategy Strategy
	opts     Options

	cur   *alloc.Allocation
	specs scenario.Set
	steps []StepMetrics

	tracer    *obs.Tracer
	traceStep int // pipeline step of the decision about to be made

	meter redist.Meter // prices the candidates; its scratch outlives an Apply
}

// NewTracker builds a tracker for the given process grid and network.
func NewTracker(g geom.Grid, net topology.Network, model *perfmodel.ExecModel, oracle *perfmodel.Oracle, strategy Strategy, opts Options) (*Tracker, error) {
	if net == nil || model == nil || oracle == nil {
		return nil, fmt.Errorf("core: nil dependency")
	}
	if net.Size() < g.Size() {
		return nil, fmt.Errorf("core: network of %d ranks for grid of %d", net.Size(), g.Size())
	}
	if opts.ElemBytes <= 0 {
		return nil, fmt.Errorf("core: invalid element size %d", opts.ElemBytes)
	}
	if opts.Ratio < 1 {
		return nil, fmt.Errorf("core: invalid refinement ratio %d", opts.Ratio)
	}
	return &Tracker{grid: g, net: net, model: model, oracle: oracle, strategy: strategy, opts: opts}, nil
}

// Allocation returns the current allocation (nil before the first Apply).
func (t *Tracker) Allocation() *alloc.Allocation { return t.cur }

// Grid returns the process grid the tracker allocates over.
func (t *Tracker) Grid() geom.Grid { return t.grid }

// Net returns the tracker's network model.
func (t *Tracker) Net() topology.Network { return t.net }

// Steps returns the per-adaptation-point metrics recorded so far.
func (t *Tracker) Steps() []StepMetrics { return t.steps }

// SetTracer installs a structured tracer (nil removes it): every Apply
// then emits one decision event recording the strategy used, the
// predicted and actual exec+redist cost, the allocator build times, and
// on dynamic steps whether the prediction picked the actually-cheaper
// candidate. With a nil tracer Apply pays one pointer check.
func (t *Tracker) SetTracer(tr *obs.Tracer) { t.tracer = tr }

// SetTraceStep records the pipeline step the next Apply's decision event
// is scoped to (the tracker itself has no step counter).
func (t *Tracker) SetTraceStep(step int) { t.traceStep = step }

// weights derives the allocation weights of a nest set: the predicted
// execution-time ratios (§IV), evaluated at an equal processor share.
func (t *Tracker) weights(set scenario.Set) (map[int]float64, error) {
	if len(set) == 0 {
		return map[int]float64{}, nil
	}
	share := t.grid.Size() / len(set)
	if share < 1 {
		share = 1
	}
	out := make(map[int]float64, len(set))
	for _, n := range set {
		nx, ny := n.FineSize(t.opts.Ratio)
		pred, err := t.model.Predict(nx, ny, share)
		if err != nil {
			return nil, fmt.Errorf("core: weight for nest %d: %w", n.ID, err)
		}
		out[n.ID] = pred
	}
	return out, nil
}

// fineSizes maps nest IDs to fine-domain extents for redistribution plans.
func (t *Tracker) fineSizes(set scenario.Set) map[int][2]int {
	out := make(map[int][2]int, len(set))
	for _, n := range set {
		nx, ny := n.FineSize(t.opts.Ratio)
		out[n.ID] = [2]int{nx, ny}
	}
	return out
}

// execTimes returns the actual (oracle) and predicted execution time of an
// allocation: nests run simultaneously on disjoint processor subsets, so
// the interval cost is the maximum over nests.
func (t *Tracker) execTimes(a *alloc.Allocation, set scenario.Set) (actual, predicted float64, err error) {
	for _, n := range set {
		r, ok := a.Rects[n.ID]
		if !ok {
			return 0, 0, fmt.Errorf("core: nest %d missing from allocation", n.ID)
		}
		nx, ny := n.FineSize(t.opts.Ratio)
		if got := t.oracle.ExecTime(nx, ny, r.Area(), r.AspectRatio()); got > actual {
			actual = got
		}
		p, err := t.model.PredictRect(nx, ny, r)
		if err != nil {
			return 0, 0, err
		}
		if p > predicted {
			predicted = p
		}
	}
	return actual, predicted, nil
}

// candidate bundles one evaluated reallocation option.
type candidate struct {
	strategy  Strategy
	a         *alloc.Allocation
	actRedist float64
	actExec   float64
	predRe    float64
	predExec  float64
	metrics   redist.Metrics
}

// evaluate prices the redistribution from the current allocation to a in
// one walk of the retained nests' block overlaps (redist.Meter: no plans
// are built). One measurement serves both sides of the comparison: the
// §IV-C1 per-pair time plus the predictor's calibrated contention estimate
// is the prediction, the same time plus the contention term the predictor
// does not see is the actual.
func (t *Tracker) evaluate(strategy Strategy, a *alloc.Allocation, set scenario.Set, sizes map[int][2]int) (candidate, error) {
	m, err := t.meter.MeasureChange(t.net, t.grid, t.cur.Rects, a.Rects, sizes, t.opts.ElemBytes)
	if err != nil {
		return candidate{}, err
	}
	actExec, predExec, err := t.execTimes(a, set)
	if err != nil {
		return candidate{}, err
	}
	predRe, actRe := m.Time, m.Time
	if t.opts.PredictedContentionBytesPerSec > 0 {
		predRe += m.HopBytes / t.opts.PredictedContentionBytesPerSec
	}
	if t.opts.ContentionBytesPerSec > 0 {
		actRe += m.HopBytes / t.opts.ContentionBytesPerSec
	}
	return candidate{
		strategy:  strategy,
		a:         a,
		actRedist: actRe,
		actExec:   actExec,
		predRe:    predRe,
		predExec:  predExec,
		metrics:   m,
	}, nil
}

// Apply transitions the tracker to the new nest configuration, returning
// the metrics of the adaptation point. The first call establishes the
// initial allocation (no redistribution).
func (t *Tracker) Apply(set scenario.Set) (StepMetrics, error) {
	weights, err := t.weights(set)
	if err != nil {
		return StepMetrics{}, err
	}

	// Initial allocation, or an empty configuration: partition from
	// scratch (there is nothing to diffuse from).
	if t.cur == nil || len(t.cur.Rects) == 0 || len(set) == 0 {
		var t0 time.Time
		if t.tracer != nil {
			t0 = time.Now()
		}
		a, err := alloc.Scratch(t.grid, weights)
		if err != nil {
			return StepMetrics{}, err
		}
		scratchNS := int64(0)
		if t.tracer != nil {
			scratchNS = time.Since(t0).Nanoseconds()
		}
		actExec, predExec, err := t.execTimes(a, set)
		if err != nil {
			return StepMetrics{}, err
		}
		sm := StepMetrics{Used: Scratch, ExecTime: actExec, PredictedExecTime: predExec}
		t.cur, t.specs = a, set
		t.steps = append(t.steps, sm)
		t.traceDecision(sm, scratchNS, 0)
		return sm, nil
	}

	change, err := t.buildChange(set, weights)
	if err != nil {
		return StepMetrics{}, err
	}

	sizes := t.fineSizes(set)
	traced := t.tracer != nil
	var scratchNS, diffusionNS int64
	var cands []candidate
	if t.strategy == Scratch || t.strategy == Dynamic {
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		a, err := alloc.Scratch(t.grid, weights)
		if err != nil {
			return StepMetrics{}, err
		}
		if traced {
			scratchNS = time.Since(t0).Nanoseconds()
		}
		c, err := t.evaluate(Scratch, a, set, sizes)
		if err != nil {
			return StepMetrics{}, err
		}
		cands = append(cands, c)
	}
	if t.strategy == Diffusion || t.strategy == Dynamic {
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		a, err := alloc.Diffusion(t.grid, t.cur, change)
		if err != nil {
			return StepMetrics{}, err
		}
		if traced {
			diffusionNS = time.Since(t0).Nanoseconds()
		}
		c, err := t.evaluate(Diffusion, a, set, sizes)
		if err != nil {
			return StepMetrics{}, err
		}
		cands = append(cands, c)
	}

	pick := cands[0]
	sm := StepMetrics{}
	if t.strategy == Dynamic {
		// Choose the candidate with the smaller *predicted* total.
		if cands[1].predRe+cands[1].predExec < cands[0].predRe+cands[0].predExec {
			pick = cands[1]
		}
		best := cands[0]
		totals := map[Strategy]float64{}
		for _, c := range cands {
			totals[c.strategy] = c.actRedist + c.actExec
			if c.actRedist+c.actExec < best.actRedist+best.actExec {
				best = c
			}
		}
		sm.CandidateTotals = totals
		sm.DynamicCorrect = pick.strategy == best.strategy
	}

	sm.Used = pick.strategy
	sm.RedistTime = pick.actRedist
	sm.ExecTime = pick.actExec
	sm.PredictedRedistTime = pick.predRe
	sm.PredictedExecTime = pick.predExec
	sm.Redist = pick.metrics

	t.cur, t.specs = pick.a, set
	t.steps = append(t.steps, sm)
	t.traceDecision(sm, scratchNS, diffusionNS)
	return sm, nil
}

// traceDecision emits one decision event for an applied StepMetrics.
// Exactly one decision event is emitted per Apply call, so a traced run's
// decision records match its adaptation events one-to-one.
func (t *Tracker) traceDecision(sm StepMetrics, scratchNS, diffusionNS int64) {
	if t.tracer == nil {
		return
	}
	ev := obs.Event{
		Kind:        obs.KindDecision,
		Step:        t.traceStep,
		Strategy:    sm.Used.String(),
		Predicted:   sm.PredictedRedistTime + sm.PredictedExecTime,
		Actual:      sm.RedistTime + sm.ExecTime,
		ScratchNS:   scratchNS,
		DiffusionNS: diffusionNS,
		HopBytes:    sm.Redist.HopBytes,
		RedistBytes: int64(sm.Redist.RemoteBytes),
	}
	if sm.CandidateTotals != nil {
		ev.Dynamic = true
		ev.Correct = sm.DynamicCorrect
		for st, tot := range sm.CandidateTotals {
			if st != sm.Used {
				ev.AltActual = tot
			}
		}
	}
	t.tracer.Emit(ev)
}

// buildChange converts a new nest set into an alloc.Change against the
// current allocation.
func (t *Tracker) buildChange(set scenario.Set, weights map[int]float64) (alloc.Change, error) {
	d := scenario.DiffSets(t.specs, set)
	c := alloc.Change{
		Deleted:  d.Deleted,
		Retained: map[int]float64{},
		Added:    map[int]float64{},
	}
	for _, id := range d.Retained {
		c.Retained[id] = weights[id]
	}
	for _, id := range d.Added {
		c.Added[id] = weights[id]
	}
	return c, c.Validate(t.cur)
}

// Totals sums the actual execution and redistribution time over all
// recorded steps (the quantities of Fig. 12).
func (t *Tracker) Totals() (exec, redistTime float64) {
	for _, s := range t.steps {
		exec += s.ExecTime
		redistTime += s.RedistTime
	}
	return exec, redistTime
}
