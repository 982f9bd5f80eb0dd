package core

import (
	"runtime"
	"testing"

	"nestdiff/internal/geom"
	"nestdiff/internal/obs"
	"nestdiff/internal/pda"
	"nestdiff/internal/perfmodel"
	"nestdiff/internal/topology"
	"nestdiff/internal/wrfsim"
)

// These tests pin the concurrency contract of Pipeline.stepNests: nests
// touch pairwise-disjoint state, so stepping them from a bounded worker
// group (GOMAXPROCS wide) must produce results bit-identical to
// sequential stepping (GOMAXPROCS 1) — the same parent field, the same
// nest fields, the same adaptation events, the same nest identities.

// concurrencyPipeline builds a seeded multi-storm pipeline. testing.TB so
// benchmarks can share it.
func concurrencyPipeline(tb testing.TB, distributed bool) *Pipeline {
	tb.Helper()
	wcfg := wrfsim.DefaultConfig()
	wcfg.NX, wcfg.NY = 96, 72
	wcfg.SpawnRate = 0
	m, err := wrfsim.NewModel(wcfg)
	if err != nil {
		tb.Fatal(err)
	}
	for _, c := range []wrfsim.Cell{
		{X: 18, Y: 16, Radius: 5, Peak: 2.5, Life: 8 * 3600},
		{X: 70, Y: 52, Radius: 4, Peak: 2.2, Life: 8 * 3600},
		{X: 48, Y: 30, Radius: 4, Peak: 2.0, Life: 8 * 3600},
		{X: 20, Y: 55, Radius: 4, Peak: 1.9, Life: 8 * 3600},
	} {
		if err := m.InjectCell(c); err != nil {
			tb.Fatal(err)
		}
	}
	g := geom.NewGrid(8, 6)
	net, err := topology.NewTorus3D(g, topology.TorusDimsFor(g.Size()), topology.DefaultTorusParams())
	if err != nil {
		tb.Fatal(err)
	}
	oracle := perfmodel.DefaultOracle()
	model, err := perfmodel.Profile(oracle, perfmodel.DefaultSampleDomains(), perfmodel.DefaultProcSizes())
	if err != nil {
		tb.Fatal(err)
	}
	tracker, err := NewTracker(g, net, model, oracle, Diffusion, DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	p, err := NewPipeline(m, tracker, PipelineConfig{
		WRFGrid:       geom.NewGrid(8, 6),
		AnalysisRanks: 6,
		Interval:      5,
		PDA:           pda.DefaultOptions(),
		MaxNests:      6,
		Distributed:   distributed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// runWithProcs runs p for steps with GOMAXPROCS set to procs, so serial
// nests step on that many workers.
func runWithProcs(tb testing.TB, p *Pipeline, procs, steps int) {
	tb.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	if err := p.Run(steps); err != nil {
		tb.Fatal(err)
	}
}

func sameEvents(t *testing.T, seq, conc []AdaptationEvent) {
	t.Helper()
	if len(seq) != len(conc) {
		t.Fatalf("event counts differ: sequential %d, concurrent %d", len(seq), len(conc))
	}
	for i := range seq {
		a, b := seq[i], conc[i]
		if a.Step != b.Step || len(a.Set) != len(b.Set) ||
			len(a.Diff.Added) != len(b.Diff.Added) ||
			len(a.Diff.Deleted) != len(b.Diff.Deleted) ||
			len(a.Diff.Retained) != len(b.Diff.Retained) {
			t.Fatalf("adaptation event %d differs: %+v vs %+v", i, a, b)
		}
		for j := range a.Set {
			if a.Set[j] != b.Set[j] {
				t.Fatalf("event %d nest spec %d differs: %+v vs %+v", i, j, a.Set[j], b.Set[j])
			}
		}
	}
}

func TestConcurrentSerialNestsMatchSequential(t *testing.T) {
	seq := concurrencyPipeline(t, false)
	conc := concurrencyPipeline(t, false)
	const steps = 40
	runWithProcs(t, seq, 1, steps)
	runWithProcs(t, conc, 4, steps)

	sameEvents(t, seq.Events(), conc.Events())
	for i := range seq.Model().QCloud().Data {
		if seq.Model().QCloud().Data[i] != conc.Model().QCloud().Data[i] {
			t.Fatalf("parent field sample %d differs between worker counts", i)
		}
	}
	if len(seq.Nests()) == 0 {
		t.Fatal("scenario spawned no nests; concurrency untested")
	}
	if len(seq.Nests()) != len(conc.Nests()) {
		t.Fatalf("nest counts differ: %d vs %d", len(seq.Nests()), len(conc.Nests()))
	}
	for id, a := range seq.Nests() {
		b, ok := conc.Nests()[id]
		if !ok {
			t.Fatalf("nest %d missing from concurrent run", id)
		}
		for i := range a.QCloud().Data {
			if a.QCloud().Data[i] != b.QCloud().Data[i] {
				t.Fatalf("nest %d sample %d differs between worker counts", id, i)
			}
		}
	}
	t.Logf("compared %d nests bit-identically", len(seq.Nests()))
}

func TestConcurrentDistributedNestsMatchSequential(t *testing.T) {
	seq := concurrencyPipeline(t, true)
	conc := concurrencyPipeline(t, true)
	const steps = 40
	runWithProcs(t, seq, 1, steps)
	runWithProcs(t, conc, 4, steps)

	sameEvents(t, seq.Events(), conc.Events())
	if len(seq.DistributedNests()) == 0 {
		t.Fatal("scenario spawned no distributed nests; concurrency untested")
	}
	if len(seq.DistributedNests()) != len(conc.DistributedNests()) {
		t.Fatalf("nest counts differ: %d vs %d",
			len(seq.DistributedNests()), len(conc.DistributedNests()))
	}
	for id, a := range seq.DistributedNests() {
		b, ok := conc.DistributedNests()[id]
		if !ok {
			t.Fatalf("nest %d missing from concurrent run", id)
		}
		if a.Procs() != b.Procs() {
			t.Fatalf("nest %d procs differ: %v vs %v", id, a.Procs(), b.Procs())
		}
		ga, gb := a.QCloud(), b.QCloud()
		for i := range ga.Data {
			if ga.Data[i] != gb.Data[i] {
				t.Fatalf("nest %d sample %d differs between worker counts", id, i)
			}
		}
	}
	t.Logf("compared %d distributed nests bit-identically", len(seq.DistributedNests()))
}

func TestNestStepEventsEmitted(t *testing.T) {
	p := concurrencyPipeline(t, false)
	tr := obs.New(obs.Options{})
	p.SetTracer(tr)
	if err := p.Run(20); err != nil {
		t.Fatal(err)
	}
	events, _ := tr.Events()
	perNest := 0
	nests := map[int]bool{}
	for _, e := range events {
		if e.Kind == "nest-step" {
			perNest++
			nests[e.NestID] = true
			if e.DurNS < 0 {
				t.Fatalf("nest-step event with negative duration: %+v", e)
			}
		}
	}
	if perNest == 0 || len(nests) < 2 {
		t.Fatalf("expected per-nest step events for several nests, got %d events over %d nests",
			perNest, len(nests))
	}
}

// TestPhasesPartitionTheStep: a step's timed phases are non-overlapping
// leaves of its span, so they never sum past it (nestbench's
// core.share.other, the step time no phase covers, is never negative).
// The "model" phase is the parent's cell half; its field half runs inside
// the "nests" phase — beside the nests of a serial pipeline, before the
// dispatch of a distributed one — and is reported once per step as its
// own parent-field event, which the "nests" phase contains.
func TestPhasesPartitionTheStep(t *testing.T) {
	for _, distributed := range []bool{false, true} {
		p := concurrencyPipeline(t, distributed)
		tr := obs.New(obs.Options{Buffer: 1 << 14})
		p.SetTracer(tr)
		const steps = 30
		if err := p.Run(steps); err != nil {
			t.Fatal(err)
		}
		p.Close()
		events, dropped := tr.Events()
		if dropped != 0 {
			t.Fatalf("ring evicted %d events", dropped)
		}
		phases := map[int]int64{}
		nestsPhase := map[int]int64{}
		stepSpan := map[int]int64{}
		field := map[int][]int64{}
		for _, e := range events {
			switch e.Kind {
			case obs.KindPhase:
				phases[e.Step] += e.DurNS
				if e.Phase == "nests" {
					nestsPhase[e.Step] = e.DurNS
				}
			case obs.KindStep:
				stepSpan[e.Step] = e.DurNS
			case obs.KindParentField:
				field[e.Step] = append(field[e.Step], e.DurNS)
			}
		}
		for s := 1; s <= steps; s++ {
			if phases[s] > stepSpan[s] {
				t.Fatalf("distributed=%v step %d: phases sum to %d ns, past the step's %d ns", distributed, s, phases[s], stepSpan[s])
			}
			if len(field[s]) != 1 {
				t.Fatalf("distributed=%v step %d: %d parent-field events, want 1", distributed, s, len(field[s]))
			}
			if field[s][0] > nestsPhase[s] {
				t.Fatalf("distributed=%v step %d: parent field half %d ns outside the %d ns nests phase", distributed, s, field[s][0], nestsPhase[s])
			}
		}
	}
}

// BenchmarkPipelineStepMultiNest measures whole pipeline steps while
// several nests are live, sequentially and with the bounded worker group.
func BenchmarkPipelineStepMultiNest(b *testing.B) {
	run := func(b *testing.B, procs int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		p := concurrencyPipeline(b, false)
		// Run until the storms are detected and nests exist, then measure.
		if err := p.Run(25); err != nil {
			b.Fatal(err)
		}
		if len(p.Nests()) < 2 {
			b.Fatalf("scenario spawned %d nests, want >= 2", len(p.Nests()))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run("concurrent", func(b *testing.B) { run(b, runtime.GOMAXPROCS(0)) })
}
