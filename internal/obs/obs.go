// Package obs is the observability layer of the nestdiff runtime: a
// low-overhead, concurrency-safe structured tracer that the core
// pipeline, the wrfsim redistribution, the tracker's scratch-vs-diffusion
// decisions and the job scheduler emit events into.
//
// Events land in a bounded ring buffer (the most recent events win; the
// number of evicted events is reported alongside) and, optionally, in an
// append-only ledger on disk (CRC-framed JSON lines, see Ledger).
// Duration-carrying events additionally feed streaming log-linear latency
// histograms, so per-phase p50/p90/p99 are available without retaining
// every event.
//
// Like internal/faults, every method is safe on a nil *Tracer and returns
// immediately, so a disabled tracer costs one pointer check per event
// site and nothing else.
package obs

import (
	"sync"
	"time"
)

// Kind labels a trace event.
type Kind string

const (
	// KindPhase is one timed phase of work (model step, PDA, realloc,
	// reconcile, checkpoint, ...). Phase events are the leaves of a job
	// timeline: per job they are non-overlapping, so their durations sum
	// to (approximately) the job's busy wall time.
	KindPhase Kind = "phase"
	// KindStep is one whole pipeline step (it spans several phases, so it
	// is excluded from timeline sums and feeds the step-latency histogram
	// instead).
	KindStep Kind = "step"
	// KindAdapt is one PDA invocation and its consequences — the
	// pipeline-level adaptation event.
	KindAdapt Kind = "adapt"
	// KindDecision is one tracker reallocation decision: the strategy
	// used, its predicted and actual cost, and (on dynamic steps) whether
	// the prediction picked the actually-cheaper candidate.
	KindDecision Kind = "decision"
	// KindNestSpawn / KindNestMove / KindNestDelete record nest lifecycle
	// changes at adaptation points.
	KindNestSpawn  Kind = "nest-spawn"
	KindNestMove   Kind = "nest-move"
	KindNestDelete Kind = "nest-delete"
	// KindRedist is one executed in-place Alltoallv redistribution of a
	// distributed nest.
	KindRedist Kind = "redist"
	// KindNestStep is one nest's advance within a pipeline step. Nests
	// step concurrently (distributed nests in one shared dispatch, whose
	// duration each of their events carries), so these events overlap each
	// other and the enclosing "nests" phase — they feed a per-nest latency
	// aggregate, never timeline phase sums.
	KindNestStep Kind = "nest-step"
	// KindParentField is the parent model's field half within a pipeline
	// step (wrfsim.Model.StepField): source deposition and advection. It
	// runs inside the "nests" phase, beside the nest steps on a serial
	// pipeline, so like KindNestStep it feeds its own latency aggregate,
	// never timeline phase sums.
	KindParentField Kind = "parent-field"
	// KindJob records job lifecycle transitions (submitted, attempt,
	// paused, retry, done, failed, cancelled).
	KindJob Kind = "job"
)

// Event is one structured trace record. Unused fields stay zero and are
// omitted from the JSON ledger.
type Event struct {
	// Seq is the tracer-assigned sequence number (1-based, gap-free even
	// when the ring buffer evicts events).
	Seq int64 `json:"seq"`
	// T is the wall-clock emission time.
	T time.Time `json:"t"`
	// Kind labels the event.
	Kind Kind `json:"kind"`
	// Step is the pipeline parent step the event belongs to (0 when not
	// step-scoped).
	Step int `json:"step,omitempty"`
	// Phase names the timed phase (KindPhase) or the lifecycle transition
	// (KindJob).
	Phase string `json:"phase,omitempty"`
	// DurNS is the event's wall-clock duration in nanoseconds.
	DurNS int64 `json:"dur_ns,omitempty"`
	// NestID scopes nest lifecycle and redistribution events.
	NestID int `json:"nest,omitempty"`
	// Strategy is the reallocation strategy a decision used.
	Strategy string `json:"strategy,omitempty"`
	// Dynamic reports that a decision evaluated both candidates; Correct
	// reports whether the predicted pick minimized the actual total.
	Dynamic bool `json:"dynamic,omitempty"`
	Correct bool `json:"correct,omitempty"`
	// Predicted and Actual are the decision's predicted and actual
	// exec+redist cost in modelled seconds; AltActual is the actual cost
	// of the rejected candidate (dynamic decisions only). For KindRedist,
	// Actual is the executed exchange's virtual time.
	Predicted float64 `json:"predicted,omitempty"`
	Actual    float64 `json:"actual,omitempty"`
	AltActual float64 `json:"alt_actual,omitempty"`
	// ScratchNS / DiffusionNS are the wall times spent building the
	// scratch and diffusion candidate allocations.
	ScratchNS   int64 `json:"scratch_ns,omitempty"`
	DiffusionNS int64 `json:"diffusion_ns,omitempty"`
	// HopBytes and RedistBytes carry the network-load metrics of the
	// applied redistribution.
	HopBytes    float64 `json:"hop_bytes,omitempty"`
	RedistBytes int64   `json:"redist_bytes,omitempty"`
	// Detail is a short human-readable annotation.
	Detail string `json:"detail,omitempty"`
}

// Options configures a Tracer.
type Options struct {
	// Buffer bounds the in-memory event ring. Zero means 4096.
	Buffer int
	// Ledger, when non-nil, receives every event as one framed line. The
	// tracer does not own the ledger; closing it is the caller's job.
	Ledger *Ledger
}

// agg is the streaming aggregate of one named duration series.
type agg struct {
	kind Kind
	hist *Histogram
}

// Tracer collects structured events. All methods are safe for concurrent
// use and safe on a nil receiver (no-ops), so emission sites need only a
// nil check.
type Tracer struct {
	mu      sync.Mutex
	seq     int64
	ring    []Event
	cap     int
	head    int // index of the oldest event once the ring wrapped
	full    bool
	dropped int64
	ledger  *Ledger
	ledErr  error
	// ledMu orders ledger appends by Seq: Emit takes it while still
	// holding mu, so the emitter that drew the lower Seq writes first, and
	// releases mu before the write, so the ring is never locked across
	// file I/O done by its own emitter.
	ledMu sync.Mutex

	aggs  map[string]*agg
	order []string
}

// New returns a tracer with the given options.
func New(opts Options) *Tracer {
	if opts.Buffer <= 0 {
		opts.Buffer = 4096
	}
	return &Tracer{
		ring:   make([]Event, 0, opts.Buffer),
		cap:    opts.Buffer,
		ledger: opts.Ledger,
		aggs:   make(map[string]*agg),
	}
}

// aggName maps an event to its streaming-aggregate series ("" = none):
// phases aggregate under their phase name, whole steps under "step",
// executed redistributions under "redist", nest steps and the parent's
// field half under their kind, and job attempts under "attempt".
func aggName(e Event) string {
	switch e.Kind {
	case KindPhase:
		return e.Phase
	case KindStep:
		return "step"
	case KindRedist:
		return "redist"
	case KindNestStep:
		return "nest-step"
	case KindParentField:
		return "parent-field"
	case KindJob:
		if e.Phase == "attempt" {
			return "attempt"
		}
	}
	return ""
}

// Emit records one event: sequence number and timestamp are assigned
// here. The event is appended to the ring (evicting the oldest when
// full), folded into its streaming aggregate, and appended to the ledger
// when one is attached — in Seq order, whatever the interleaving of
// concurrent emitters.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if e.T.IsZero() {
		e.T = time.Now()
	}
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.head] = e
		t.head = (t.head + 1) % t.cap
		t.full = true
		t.dropped++
	}
	if name := aggName(e); name != "" {
		a, ok := t.aggs[name]
		if !ok {
			a = &agg{kind: e.Kind, hist: NewHistogram()}
			t.aggs[name] = a
			t.order = append(t.order, name)
		}
		a.hist.ObserveNS(e.DurNS)
	}
	led := t.ledger
	if led != nil {
		t.ledMu.Lock()
	}
	t.mu.Unlock()
	if led != nil {
		err := led.Append(e)
		t.ledMu.Unlock()
		if err != nil {
			t.mu.Lock()
			if t.ledErr == nil {
				t.ledErr = err
			}
			t.mu.Unlock()
		}
	}
}

// EmitPhase records one timed phase of step `step`.
func (t *Tracer) EmitPhase(step int, phase string, d time.Duration) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KindPhase, Step: step, Phase: phase, DurNS: d.Nanoseconds()})
}

// EmitStep records the duration of one whole pipeline step.
func (t *Tracer) EmitStep(step int, d time.Duration) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KindStep, Step: step, DurNS: d.Nanoseconds()})
}

// Events returns a copy of the buffered events, oldest first, plus the
// number of older events the bounded ring has evicted.
func (t *Tracer) Events() ([]Event, int64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.ring))
	if t.full {
		out = append(out, t.ring[t.head:]...)
		out = append(out, t.ring[:t.head]...)
	} else {
		out = append(out, t.ring...)
	}
	return out, t.dropped
}

// Dropped returns the number of events evicted from the ring so far.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// LedgerErr returns the first ledger append error (nil when clean or no
// ledger is attached).
func (t *Tracer) LedgerErr() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ledErr
}

// Summaries returns the streaming aggregates of every duration series in
// first-seen order. Aggregates survive ring eviction: they reflect every
// event ever emitted, not just the buffered tail.
func (t *Tracer) Summaries() []PhaseSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	names := append([]string(nil), t.order...)
	aggs := make([]*agg, len(names))
	for i, n := range names {
		aggs[i] = t.aggs[n]
	}
	t.mu.Unlock()
	out := make([]PhaseSummary, len(names))
	for i, n := range names {
		out[i] = summarize(n, aggs[i].kind, aggs[i].hist)
	}
	return out
}
