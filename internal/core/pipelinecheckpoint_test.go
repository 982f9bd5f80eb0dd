package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"nestdiff/internal/geom"
	"nestdiff/internal/pda"
	"nestdiff/internal/wrfsim"
)

// checkpointPipeline builds a small scripted-storm pipeline over the given
// tracker grid in the given mode, with storms long-lived enough that nests
// exist at the pause point and churn afterwards.
func checkpointPipeline(t testing.TB, g geom.Grid, strategy Strategy, distributed bool) *Pipeline {
	t.Helper()
	wcfg := wrfsim.DefaultConfig()
	wcfg.NX, wcfg.NY = 96, 72
	wcfg.SpawnRate = 0
	m, err := wrfsim.NewModel(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []wrfsim.Cell{
		{X: 20, Y: 18, Radius: 5, Peak: 2.5, Life: 2 * 3600},
		{X: 70, Y: 50, Radius: 4, Peak: 2.0, Life: 6 * 3600},
	} {
		if err := m.InjectCell(c); err != nil {
			t.Fatal(err)
		}
	}
	tr := newTestTracker(t, g, strategy)
	p, err := NewPipeline(m, tr, PipelineConfig{
		WRFGrid:       geom.NewGrid(8, 6),
		AnalysisRanks: 6,
		Interval:      5,
		PDA:           pda.DefaultOptions(),
		MaxNests:      4,
		Distributed:   distributed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runRoundTrip pauses a pipeline at step k, restores it from the
// checkpoint, and verifies the resumed run reproduces the uninterrupted
// run's StepMetrics tail and final nest set exactly.
func runRoundTrip(t *testing.T, distributed bool) {
	t.Helper()
	const k, total = 60, 160
	g := geom.NewGrid(8, 6)

	ref := checkpointPipeline(t, g, Diffusion, distributed)
	if err := ref.Run(k); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ref.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	eventsAtPause := len(ref.Events())
	// Continue the reference run uninterrupted.
	if err := ref.Run(total - k); err != nil {
		t.Fatal(err)
	}

	net, model, oracle := testEnv(t, g)
	resumed, err := RestorePipeline(bytes.NewReader(buf.Bytes()), net, model, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.StepCount() != k {
		t.Fatalf("restored pipeline at step %d, want %d", resumed.StepCount(), k)
	}
	if len(resumed.Events()) != eventsAtPause {
		t.Fatalf("restored pipeline has %d events, want %d", len(resumed.Events()), eventsAtPause)
	}
	if err := resumed.Run(total - k); err != nil {
		t.Fatal(err)
	}

	refEvents, resEvents := ref.Events(), resumed.Events()
	if len(refEvents) != len(resEvents) {
		t.Fatalf("event count diverged: uninterrupted %d, resumed %d", len(refEvents), len(resEvents))
	}
	if len(refEvents) == eventsAtPause {
		t.Fatal("no adaptation events after the pause point; tail comparison is vacuous")
	}
	for i := eventsAtPause; i < len(refEvents); i++ {
		a, b := refEvents[i], resEvents[i]
		if a.Step != b.Step {
			t.Fatalf("event %d at step %d (uninterrupted) vs %d (resumed)", i, a.Step, b.Step)
		}
		if !stepMetricsEqual(a.Metrics, b.Metrics) {
			t.Fatalf("event %d StepMetrics diverged:\nuninterrupted %+v\nresumed       %+v", i, a.Metrics, b.Metrics)
		}
		if a.ExecutedRedistTime != b.ExecutedRedistTime {
			t.Fatalf("event %d executed redist time %g vs %g", i, a.ExecutedRedistTime, b.ExecutedRedistTime)
		}
	}

	// Tracker StepMetrics tails must agree too (the tracker was restored
	// from the checkpoint metadata's tracker record).
	refSteps, resSteps := ref.Tracker().Steps(), resumed.Tracker().Steps()
	if len(refSteps) != len(resSteps) {
		t.Fatalf("tracker step count diverged: %d vs %d", len(refSteps), len(resSteps))
	}
	for i := eventsAtPause; i < len(refSteps); i++ {
		if !stepMetricsEqual(refSteps[i], resSteps[i]) {
			t.Fatalf("tracker step %d diverged:\nuninterrupted %+v\nresumed       %+v", i, refSteps[i], resSteps[i])
		}
	}

	// Final nest sets must be identical.
	a, b := ref.ActiveSet(), resumed.ActiveSet()
	if len(a) != len(b) {
		t.Fatalf("final nest sets differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("final nest %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// stepMetricsEqual compares two StepMetrics including the CandidateTotals
// map (which makes StepMetrics itself non-comparable with ==).
func stepMetricsEqual(a, b StepMetrics) bool {
	if a.Used != b.Used || a.RedistTime != b.RedistTime || a.ExecTime != b.ExecTime ||
		a.PredictedRedistTime != b.PredictedRedistTime || a.PredictedExecTime != b.PredictedExecTime ||
		a.Redist != b.Redist || a.DynamicCorrect != b.DynamicCorrect ||
		len(a.CandidateTotals) != len(b.CandidateTotals) {
		return false
	}
	for k, v := range a.CandidateTotals {
		if b.CandidateTotals[k] != v {
			return false
		}
	}
	return true
}

func TestPipelineCheckpointRoundTripSerial(t *testing.T) {
	runRoundTrip(t, false)
}

func TestPipelineCheckpointRoundTripDistributed(t *testing.T) {
	runRoundTrip(t, true)
}

func TestRestorePipelineRejectsCorruptState(t *testing.T) {
	g := geom.NewGrid(8, 6)
	net, model, oracle := testEnv(t, g)
	if _, err := RestorePipeline(bytes.NewReader([]byte("not a checkpoint")), net, model, oracle); err == nil {
		t.Fatal("corrupt pipeline state accepted")
	}
}

// validCheckpoint runs a small pipeline a few steps and returns its
// enveloped checkpoint bytes.
func validCheckpoint(t *testing.T) []byte {
	t.Helper()
	p := checkpointPipeline(t, geom.NewGrid(8, 6), Diffusion, false)
	if err := p.Run(20); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestorePipelineRejectsTornAndCorruptEnvelopes: the checkpoint
// envelope must catch a torn file (incomplete payload), a flipped bit
// (checksum), and a foreign file (magic) with clear errors instead of
// partially gob-decoding garbage.
func TestRestorePipelineRejectsTornAndCorruptEnvelopes(t *testing.T) {
	g := geom.NewGrid(8, 6)
	net, model, oracle := testEnv(t, g)
	ckpt := validCheckpoint(t)

	// Sanity: the intact envelope restores.
	if _, err := RestorePipeline(bytes.NewReader(ckpt), net, model, oracle); err != nil {
		t.Fatalf("intact checkpoint rejected: %v", err)
	}

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"torn payload", func(b []byte) []byte { return b[:len(b)*2/3] }, "torn"},
		{"torn header", func(b []byte) []byte { return b[:10] }, "truncated"},
		{"flipped payload bit", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x40
			return c
		}, "checksum mismatch"},
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		}, "bad magic"},
		// Field dimensions whose product wraps to the two samples the record
		// carries: every CRC checks out, so only bounding each dimension
		// before multiplying keeps the restore from slicing out of range.
		{"model dimensions overflow", func(b []byte) []byte {
			h, recs := openBlob(t, b)
			recs[1].payload = overflowWitnessField()
			return sealBlob(h, recs)
		}, "implausible field domain"},
		{"nest dimensions overflow", func(b []byte) []byte {
			h, recs := openBlob(t, b)
			if len(recs) < 3 || recs[2].kind != recNestFull {
				t.Fatal("checkpoint has no nest record to corrupt")
			}
			recs[2].payload = append(recs[2].payload[:nestFullPrefix:nestFullPrefix], overflowWitnessField()...)
			return sealBlob(h, recs)
		}, "implausible field domain"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(ckpt)
			if err := ValidateCheckpoint(data); err == nil {
				t.Fatalf("%s passed validation", tc.name)
			}
			_, err := RestorePipeline(bytes.NewReader(data), net, model, oracle)
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
			}
		})
	}
}

func TestRestorePipelineProcMismatchTyped(t *testing.T) {
	// A checkpoint taken on a larger processor grid than the restore-time
	// network must fail with the typed ErrProcMismatch, so resize-capable
	// callers can catch it with errors.Is and redistribute instead.
	g := geom.NewGrid(8, 6)
	p := checkpointPipeline(t, g, Diffusion, true)
	if err := p.Run(30); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	net, model, oracle := testEnv(t, geom.NewGrid(2, 2))
	_, err := RestorePipeline(bytes.NewReader(buf.Bytes()), net, model, oracle)
	if err == nil {
		t.Fatal("restore onto a 4-rank network accepted a 48-rank checkpoint")
	}
	if !errors.Is(err, ErrProcMismatch) {
		t.Fatalf("error %v does not match ErrProcMismatch", err)
	}
}
