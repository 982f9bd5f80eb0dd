package service

import "nestdiff/internal/obs"

// Trace is the JSON body of GET /jobs/{id}/trace: the traced job's
// buffered events, oldest first, plus how many older events the bounded
// ring has evicted. Enabled is false for jobs submitted without
// JobConfig.Trace (their Events is empty — they paid no tracing cost).
type Trace struct {
	ID      string      `json:"id"`
	Enabled bool        `json:"enabled"`
	Dropped int64       `json:"dropped"`
	Events  []obs.Event `json:"events"`
	// LedgerPath is the on-disk JSONL ledger backing this trace (empty
	// without a scheduler LedgerDir); LedgerError surfaces the first
	// append failure, if any.
	LedgerPath  string `json:"ledger_path,omitempty"`
	LedgerError string `json:"ledger_error,omitempty"`
}

// JobTrace returns one job's buffered trace events.
func (s *Scheduler) JobTrace(id string) (Trace, error) {
	j, err := s.lookup(id)
	if err != nil {
		return Trace{}, err
	}
	tr := j.obsTracer()
	out := Trace{ID: j.ID, Enabled: tr != nil}
	if tr == nil {
		return out, nil
	}
	out.Events, out.Dropped = tr.Events()
	j.mu.Lock()
	out.LedgerPath = j.ledger.Path()
	j.mu.Unlock()
	if lerr := tr.LedgerErr(); lerr != nil {
		out.LedgerError = lerr.Error()
	}
	return out, nil
}

// Timeline is the JSON body of GET /jobs/{id}/timeline: the per-phase
// wall-time breakdown of a traced job, built from the tracer's streaming
// aggregates (so it covers every event ever emitted, not just the
// buffered tail).
type Timeline struct {
	ID         string   `json:"id"`
	State      JobState `json:"state"`
	Step       int      `json:"step"`
	TotalSteps int      `json:"total_steps"`
	Enabled    bool     `json:"enabled"`
	// TotalNS sums the wall time of completed run attempts; PhaseNS sums
	// the durations of the leaf phases (build, model, nests, pda, realloc,
	// reconcile, observe, checkpoint, publish, sleep). publish is a read
	// answered while a throttled job waits between steps; sleep is the
	// rest of that wait. Phases are non-overlapping,
	// so for a finished job the two agree to within the instrumentation
	// gaps between phases.
	TotalNS int64 `json:"total_ns"`
	PhaseNS int64 `json:"phase_ns"`
	// Phases is the per-phase breakdown in first-seen order.
	Phases []obs.PhaseSummary `json:"phases"`
	// StepLatency summarizes whole-step latency. A step spans several
	// phases, so it is excluded from PhaseNS.
	StepLatency *obs.PhaseSummary `json:"step_latency,omitempty"`
	// Redist summarizes executed in-place redistribution latency
	// (distributed jobs only); redistributions happen inside the
	// reconcile phase, so they too are excluded from PhaseNS.
	Redist *obs.PhaseSummary `json:"redist,omitempty"`
	// NestStep summarizes per-nest step latency. Nests may step
	// concurrently inside the "nests" phase, so these overlap and are
	// excluded from PhaseNS.
	NestStep *obs.PhaseSummary `json:"nest_step,omitempty"`
	Dropped  int64             `json:"dropped,omitempty"`
}

// JobTimeline returns one job's per-phase timing breakdown.
func (s *Scheduler) JobTimeline(id string) (Timeline, error) {
	j, err := s.lookup(id)
	if err != nil {
		return Timeline{}, err
	}
	snap := j.Snapshot()
	tr := j.obsTracer()
	tl := Timeline{
		ID:         snap.ID,
		State:      snap.State,
		Step:       snap.Step,
		TotalSteps: snap.TotalSteps,
		Enabled:    tr != nil,
	}
	if tr == nil {
		return tl, nil
	}
	for _, ps := range tr.Summaries() {
		ps := ps
		switch {
		case ps.Kind == obs.KindPhase:
			tl.Phases = append(tl.Phases, ps)
			tl.PhaseNS += ps.TotalNS
		case ps.Kind == obs.KindJob && ps.Name == "attempt":
			tl.TotalNS = ps.TotalNS
		case ps.Kind == obs.KindStep:
			tl.StepLatency = &ps
		case ps.Kind == obs.KindRedist:
			tl.Redist = &ps
		case ps.Kind == obs.KindNestStep:
			tl.NestStep = &ps
		}
	}
	tl.Dropped = tr.Dropped()
	return tl, nil
}
