package elastic

import (
	"errors"
	"reflect"
	"testing"

	"nestdiff/internal/core"
	"nestdiff/internal/geom"
	"nestdiff/internal/pda"
	"nestdiff/internal/wrfsim"
)

// goldenPipeline builds a distributed scratch-strategy pipeline at the
// given processor count over a deterministic three-storm scenario. The
// storms' staggered lifetimes (steps ~60, ~105 and beyond the run) force
// nest deletions and reallocation churn inside every post-resize window.
func goldenPipeline(t *testing.T, procs int) *core.Pipeline {
	t.Helper()
	m, err := BuildMachine(procs, "switched", 8)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.NewTracker(m.Grid, m.Net, m.Model, m.Oracle, core.Scratch, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wcfg := wrfsim.DefaultConfig()
	wcfg.NX, wcfg.NY = 96, 72
	wcfg.SpawnRate = 0
	model, err := wrfsim.NewModel(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []wrfsim.Cell{
		{X: 20, Y: 18, Radius: 5, Peak: 2.5, Life: 2 * 3600},
		{X: 70, Y: 50, Radius: 4, Peak: 2.0, Life: 12600},
		{X: 48, Y: 30, Radius: 4, Peak: 2.2, Life: 6 * 3600},
	} {
		if err := model.InjectCell(c); err != nil {
			t.Fatal(err)
		}
	}
	p, err := core.NewPipeline(model, tr, core.PipelineConfig{
		WRFGrid:       geom.NewGrid(8, 6),
		AnalysisRanks: 6,
		Interval:      5,
		PDA:           pda.DefaultOptions(),
		MaxNests:      3,
		Distributed:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// eventsBetween returns the adaptation events with lo < Step <= hi.
func eventsBetween(events []core.AdaptationEvent, lo, hi int) []core.AdaptationEvent {
	var out []core.AdaptationEvent
	for _, e := range events {
		if e.Step > lo && e.Step <= hi {
			out = append(out, e)
		}
	}
	return out
}

// TestResizeGoldenEquivalence is the tentpole contract: a pipeline
// resized mid-run (4 → 8 → 3 processors) resumes identically to
// pipelines that ran at the new size all along. With the scratch
// strategy the allocation is memoryless, so after each resize the
// adaptation events — nest sets, diffs, modelled costs AND the executed
// Alltoallv times — must equal the fixed-size run's events bit for bit
// over the same step range. The final fine-grid nest states must agree
// bit for bit too: every rank advects its window of one nest-wide field
// with the serial arithmetic, so no decomposition history leaves a trace
// in the samples.
func TestResizeGoldenEquivalence(t *testing.T) {
	elastic := goldenPipeline(t, 4)
	fixed8 := goldenPipeline(t, 8)
	fixed3 := goldenPipeline(t, 3)

	if err := elastic.Run(50); err != nil {
		t.Fatal(err)
	}
	rep, err := Resize(elastic, 8, "switched", 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OldProcs != 4 || rep.NewProcs != 8 {
		t.Fatalf("resize report %+v, want 4 -> 8", rep)
	}
	if rep.Nests == 0 || rep.MovedBytes == 0 {
		t.Fatalf("grow remapped no nest state: %+v", rep)
	}
	if err := elastic.Run(40); err != nil {
		t.Fatal(err)
	}
	rep, err = Resize(elastic, 3, "switched", 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OldProcs != 8 || rep.NewProcs != 3 {
		t.Fatalf("resize report %+v, want 8 -> 3", rep)
	}
	if err := elastic.Run(40); err != nil {
		t.Fatal(err)
	}

	if err := fixed8.Run(130); err != nil {
		t.Fatal(err)
	}
	if err := fixed3.Run(130); err != nil {
		t.Fatal(err)
	}

	// The window after each resize must replay the fixed-size run's
	// events exactly — set, diff, modelled metrics and executed
	// redistribution time alike.
	compare := func(name string, got, want []core.AdaptationEvent) {
		t.Helper()
		if len(got) == 0 {
			t.Fatalf("%s: no adaptation events in window", name)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d events vs %d in the fixed-size run", name, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: step %d event diverged:\nresized: %+v\nfixed:   %+v",
					name, got[i].Step, got[i], want[i])
			}
		}
	}
	compare("after 4->8", eventsBetween(elastic.Events(), 50, 90), eventsBetween(fixed8.Events(), 50, 90))
	compare("after 8->3", eventsBetween(elastic.Events(), 90, 130), eventsBetween(fixed3.Events(), 90, 130))

	// Final nest population and per-nest fine-grid state match the
	// fixed-3 run bit for bit.
	if !reflect.DeepEqual(elastic.ActiveSet(), fixed3.ActiveSet()) {
		t.Fatalf("final set %v vs fixed-size %v", elastic.ActiveSet(), fixed3.ActiveSet())
	}
	got, want := elastic.DistributedNests(), fixed3.DistributedNests()
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("%d final nests vs %d (want a non-empty match)", len(got), len(want))
	}
	for id, gn := range got {
		wn, ok := want[id]
		if !ok {
			t.Fatalf("nest %d only in the resized run", id)
		}
		if gn.Procs() != wn.Procs() {
			t.Fatalf("nest %d on procs %v vs %v", id, gn.Procs(), wn.Procs())
		}
		gf, wf := gn.Gather(), wn.Gather()
		if len(gf.Data) != len(wf.Data) {
			t.Fatalf("nest %d field %d samples vs %d", id, len(gf.Data), len(wf.Data))
		}
		for i := range gf.Data {
			if gf.Data[i] != wf.Data[i] {
				t.Fatalf("nest %d sample %d: %.17g vs %.17g", id, i, gf.Data[i], wf.Data[i])
			}
		}
	}
}

// TestResizeNoopAndErrors pins the edges: resizing to the current size
// moves nothing, bad arguments fail without touching the pipeline, and a
// failed resize leaves the pipeline runnable at its old size.
func TestResizeNoopAndErrors(t *testing.T) {
	if _, err := Resize(nil, 8, "", 0); err == nil {
		t.Fatal("nil pipeline accepted")
	}
	p := goldenPipeline(t, 4)
	if err := p.Run(20); err != nil {
		t.Fatal(err)
	}
	if _, err := Resize(p, 0, "", 0); err == nil {
		t.Fatal("zero processor count accepted")
	}
	if _, err := Resize(p, 8, "hypercube", 0); err == nil {
		t.Fatal("unknown machine kind accepted")
	}
	rep, err := Resize(p, 4, "switched", 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nests != 0 || rep.MovedBytes != 0 {
		t.Fatalf("same-size resize moved state: %+v", rep)
	}
	// Still runnable after the rejected and no-op resizes.
	if err := p.Run(10); err != nil {
		t.Fatal(err)
	}
	if p.StepCount() != 30 {
		t.Fatalf("pipeline at step %d, want 30", p.StepCount())
	}
}

// TestBuildMachineKinds covers the machine factory used by both the
// resize path and the scheduler's job construction.
func TestBuildMachineKinds(t *testing.T) {
	for _, kind := range []string{"", "torus", "mesh", "switched"} {
		m, err := BuildMachine(48, kind, 8)
		if err != nil {
			t.Fatalf("BuildMachine(48, %q): %v", kind, err)
		}
		if m.Grid.Size() != 48 || m.Net == nil || m.Model == nil || m.Oracle == nil {
			t.Fatalf("BuildMachine(48, %q) incomplete: %+v", kind, m)
		}
	}
	if _, err := BuildMachine(0, "torus", 8); err == nil {
		t.Fatal("zero cores accepted")
	}
	var wantErr error
	if _, wantErr = BuildMachine(8, "hypercube", 8); wantErr == nil {
		t.Fatal("unknown kind accepted")
	}
	if errors.Is(wantErr, core.ErrProcMismatch) {
		t.Fatal("unknown-kind error must not alias ErrProcMismatch")
	}
}
