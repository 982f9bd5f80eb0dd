package core

import (
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"nestdiff/internal/geom"
	"nestdiff/internal/pda"
	"nestdiff/internal/wrfsim"
)

// schedulePipeline builds a serial pipeline whose scripted storms give
// every shape the serial nest phase's task pool meets: nests spawned and
// retired, a stretch with no nest at all (the parent's field half alone),
// and later a second generation of nests.
func schedulePipeline(t *testing.T) *Pipeline {
	t.Helper()
	wcfg := wrfsim.DefaultConfig()
	wcfg.NX, wcfg.NY = 96, 72
	wcfg.SpawnRate = 0
	wcfg.DecayTau = 1200 // clouds clear within ~40 steps of their storm
	wcfg.Genesis = []wrfsim.TimedCell{
		{AtStep: 0, Cell: wrfsim.Cell{X: 20, Y: 18, Radius: 5, Peak: 2.5, Life: 2400}},
		{AtStep: 0, Cell: wrfsim.Cell{X: 70, Y: 50, Radius: 4, Peak: 2.2, Life: 3600}},
		{AtStep: 150, Cell: wrfsim.Cell{X: 30, Y: 50, Radius: 5, Peak: 2.4, Life: 4 * 3600}},
		{AtStep: 160, Cell: wrfsim.Cell{X: 72, Y: 20, Radius: 4, Peak: 2.1, Life: 4 * 3600}},
	}
	m, err := wrfsim.NewModel(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(m, newTestTracker(t, geom.NewGrid(16, 16), Diffusion), PipelineConfig{
		WRFGrid:       geom.NewGrid(8, 6),
		AnalysisRanks: 6,
		Interval:      5,
		PDA:           pda.DefaultOptions(),
		MaxNests:      6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// stepSequential is the sequential reference of a serial Pipeline.Step:
// the whole Model.Step, then each nest in ID order, then the adaptation.
func (p *Pipeline) stepSequential(t *testing.T) {
	t.Helper()
	p.model.Step()
	ids := sortedIDs(&p.idScratch, p.nests)
	for _, id := range ids {
		p.nests[id].Step(p.model)
	}
	if p.model.StepCount()%p.cfg.Interval == 0 {
		if err := p.adapt(); err != nil {
			t.Fatal(err)
		}
	}
}

// sameBits requires two fields to agree sample for sample, bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: sample %d = %.17g, want %.17g", what, i, got[i], want[i])
		}
	}
}

// TestSerialStepScheduleMatchesSequential is the schedule oracle of the
// serial nest phase: the parent's field half runs as one more task beside
// the nests, largest task first, on up to GOMAXPROCS workers. Over 240
// steps — nests spawned and retired, steps with no nest, a second
// generation of nests — every step's parent field, nest fields and the
// adaptation events must be == a sequential reference run, at GOMAXPROCS
// 1 and 2.
func TestSerialStepScheduleMatchesSequential(t *testing.T) {
	const steps = 240
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			ref, got := schedulePipeline(t), schedulePipeline(t)
			defer ref.Close()
			defer got.Close()
			var spawned, retired, bare, maxNests int
			for s := 1; s <= steps; s++ {
				ref.stepSequential(t)
				if err := got.Step(); err != nil {
					t.Fatal(err)
				}
				sameBits(t, "parent qcloud", got.Model().QCloud().Data, ref.Model().QCloud().Data)
				if len(got.Nests()) != len(ref.Nests()) {
					t.Fatalf("GOMAXPROCS %d step %d: %d nests, reference %d", procs, s, len(got.Nests()), len(ref.Nests()))
				}
				for id, n := range ref.Nests() {
					g, ok := got.Nests()[id]
					if !ok {
						t.Fatalf("GOMAXPROCS %d step %d: nest %d missing", procs, s, id)
					}
					sameBits(t, "nest qcloud", g.QCloud().Data, n.QCloud().Data)
				}
				if len(ref.Nests()) == 0 && maxNests > 0 {
					bare++
				}
				maxNests = max(maxNests, len(ref.Nests()))
			}
			if !reflect.DeepEqual(got.Events(), ref.Events()) {
				t.Fatalf("GOMAXPROCS %d: adaptation events differ from the sequential reference", procs)
			}
			for _, e := range ref.Events() {
				spawned += len(e.Diff.Added)
				retired += len(e.Diff.Deleted)
			}
			// The scenario must keep exercising what it is here for.
			if spawned < 3 || retired < 2 || bare == 0 || len(ref.Nests()) == 0 {
				t.Fatalf("scenario drifted: %d spawned, %d retired, %d steps with no nest after the first, %d live at the end",
					spawned, retired, bare, len(ref.Nests()))
			}
			t.Logf("GOMAXPROCS %d: %d spawned, %d retired, %d bare steps, up to %d nests", procs, spawned, retired, bare, maxNests)
		}()
	}
}

// TestSerialStepAllocatesOnlyItsGoroutines pins a plain serial step with
// nests — no analysis, so no reallocation — to the allocations of the
// goroutines its task pool starts: the pool's state lives in the pipeline,
// its task function is bound once, and the caller is the last worker, so a
// step starts GOMAXPROCS−1 goroutines, and none at GOMAXPROCS 1. Each costs
// its go statement's closure, and now and then the runtime's goroutine
// record when no exited one is free to reuse yet: at most two.
func TestSerialStepAllocatesOnlyItsGoroutines(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			p := schedulePipeline(t)
			defer p.Close()
			for len(p.Nests()) == 0 {
				if p.StepCount() > 50 {
					t.Fatal("no nest spawned in 50 steps")
				}
				if err := p.Step(); err != nil {
					t.Fatal(err)
				}
			}
			p.cfg.Interval = math.MaxInt32   // plain steps from here on
			if err := p.Step(); err != nil { // warm the nests' buffers
				t.Fatal(err)
			}
			const steps = 40
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for range steps {
				if err := p.Step(); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m1)
			perStep := float64(m1.Mallocs-m0.Mallocs) / steps
			if want := float64(2 * (procs - 1)); perStep > want {
				t.Fatalf("GOMAXPROCS %d, %d nests: %.2f allocations per plain step, want <= %.0f",
					procs, len(p.Nests()), perStep, want)
			}
			t.Logf("GOMAXPROCS %d, %d nests: %.2f allocations per plain step", procs, len(p.Nests()), perStep)
		}()
	}
}

// TestTaskPoolReraisesPanicAfterDraining: a task's panic reaches the
// caller of run — whichever worker, the caller's own or a started one, ran
// the task — only after every other task has run, and the pool runs cleanly
// again afterwards.
func TestTaskPoolReraisesPanicAfterDraining(t *testing.T) {
	const n = 9
	for bad := range n {
		var ran [n]atomic.Bool
		g := taskPool{fn: func(i int) {
			ran[i].Store(true)
			if i == bad {
				panic(i)
			}
		}}
		func() {
			defer func() {
				if r := recover(); r != bad {
					t.Fatalf("task %d panicked: run re-raised %v", bad, r)
				}
				for i := range ran {
					if !ran[i].Load() {
						t.Fatalf("task %d panicked: task %d never ran", bad, i)
					}
				}
			}()
			g.run(3, n)
		}()
		g.fn = func(i int) { ran[i].Store(false) }
		g.run(3, n)
		for i := range ran {
			if ran[i].Load() {
				t.Fatalf("after task %d's panic: task %d did not run again", bad, i)
			}
		}
	}
}
