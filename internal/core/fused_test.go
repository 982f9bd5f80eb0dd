package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"nestdiff/internal/faults"
	"nestdiff/internal/geom"
	"nestdiff/internal/obs"
	"nestdiff/internal/pda"
	"nestdiff/internal/scenario"
	"nestdiff/internal/wrfsim"
)

// monsoonRun is a pipeline on the 256-rank torus driven by the monsoon
// genesis schedule — the track-distributed benchmark workload in small.
type monsoonRun struct {
	p *Pipeline
}

func newMonsoonRun(t testing.TB, seed int64, distributed bool) *monsoonRun {
	t.Helper()
	mc := scenario.DefaultMonsoonConfig()
	mc.Seed = seed
	wcfg := wrfsim.DefaultConfig()
	wcfg.NX, wcfg.NY = mc.NX, mc.NY
	wcfg.SpawnRate = 0
	wcfg.Genesis = scenario.MonsoonSchedule(mc)
	wcfg.MergeEnabled = true
	wcfg.DecayTau = 2400
	wcfg.OLRPerQ = 10
	m, err := wrfsim.NewModel(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(m, newTestTracker(t, geom.NewGrid(16, 16), Diffusion), PipelineConfig{
		WRFGrid:       geom.NewGrid(18, 15),
		AnalysisRanks: 16,
		Interval:      5,
		PDA:           pda.DefaultOptions(),
		MaxNests:      9,
		Distributed:   distributed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &monsoonRun{p: p}
}

func (r *monsoonRun) run(t testing.TB, steps int) {
	t.Helper()
	if err := r.p.Run(steps); err != nil {
		t.Fatal(err)
	}
}

// stepPerNest is Pipeline.Step with the distributed nests advanced the way
// they were before the fused dispatch: one StepNests call — one world
// dispatch — per nest, in nest-ID order.
func (r *monsoonRun) stepPerNest(t testing.TB) {
	t.Helper()
	p := r.p
	p.model.Step()
	ids := sortedIDs(&p.idScratch, p.nests)
	for _, id := range ids {
		if err := wrfsim.StepNests(p.compWorld, p.model.Config(), p.model.Cells(), []*wrfsim.Nest{p.nests[id]}); err != nil {
			t.Fatal(err)
		}
	}
	if p.model.StepCount()%p.cfg.Interval == 0 {
		if err := p.adapt(); err != nil {
			t.Fatal(err)
		}
	}
}

// sameField requires got and want to agree to within tol (0: bit for bit).
func sameField(t *testing.T, what string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples vs %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] && math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: sample %d differs: %.17g vs %.17g", what, i, got[i], want[i])
		}
	}
}

// TestFusedNestSteppingMatchesPerNestAndSerial is the determinism contract
// of the one-dispatch-per-step nest stepping: 60 monsoon steps with several
// live nests give the same adaptation events, nest fields and parent field
// whether the nests advance in one fused dispatch or in one dispatch per
// nest, bit for bit. A run with serial nests makes the same adaptation
// decisions and holds the same fields bit for bit too: each rank advects
// its window of the nest-wide field with the serial nest's arithmetic.
func TestFusedNestSteppingMatchesPerNestAndSerial(t *testing.T) {
	const steps, seed = 60, 4 // three nests from step 40 on, moved at 45 and 50
	fused, perNest, serial := newMonsoonRun(t, seed, true), newMonsoonRun(t, seed, true), newMonsoonRun(t, seed, false)
	fused.run(t, steps)
	serial.run(t, steps)
	for i := 0; i < steps; i++ {
		perNest.stepPerNest(t)
	}

	if n := len(fused.p.DistributedNests()); n < 3 {
		t.Fatalf("only %d live nests after %d steps; the drill needs at least 3", n, steps)
	}
	if !reflect.DeepEqual(fused.p.Events(), perNest.p.Events()) {
		t.Fatal("adaptation events differ between the fused and the per-nest dispatch")
	}
	// Serial nests execute no Alltoallv, so that one field is theirs alone.
	executed := false
	want := append([]AdaptationEvent(nil), fused.p.Events()...)
	for i := range want {
		executed = executed || want[i].ExecutedRedistTime > 0
		want[i].ExecutedRedistTime = 0
	}
	if !reflect.DeepEqual(want, serial.p.Events()) {
		t.Fatal("adaptation events differ between the distributed and the serial run")
	}
	if !executed {
		t.Fatal("no nest was redistributed; the drill never rebuilt a halo plan mid-run")
	}

	sameField(t, "parent qcloud, fused vs per-nest",
		fused.p.Model().QCloud().Data, perNest.p.Model().QCloud().Data, 0)
	sameField(t, "parent qcloud, fused vs serial",
		fused.p.Model().QCloud().Data, serial.p.Model().QCloud().Data, 0)
	for id, n := range fused.p.DistributedNests() {
		other, ok := perNest.p.DistributedNests()[id]
		if !ok || other.Procs() != n.Procs() || other.StepCount() != n.StepCount() {
			t.Fatalf("nest %d: per-nest run has %+v", id, other)
		}
		got := n.QCloud().Data
		sameField(t, "nest field, fused vs per-nest", got, other.QCloud().Data, 0)
		sn, ok := serial.p.Nests()[id]
		if !ok {
			t.Fatalf("nest %d missing from the serial run", id)
		}
		sameField(t, "nest field, fused vs serial", got, sn.QCloud().Data, 0)
	}
}

// TestDistributedNestFieldsMatchSerialEveryStep steps the track-distributed
// shape — monsoon genesis, the 16x16 torus, up to 9 nests, adaptation every
// 5 steps — for 300 steps with distributed and with serial nests, and
// requires, after every step, the same live nests holding the same fine
// fields, and the same parent field, bit for bit: across spawns, releases
// and the executed redistributions of nests the allocator moved.
func TestDistributedNestFieldsMatchSerialEveryStep(t *testing.T) {
	const steps, seed = 300, 11
	dist, serial := newMonsoonRun(t, seed, true), newMonsoonRun(t, seed, false)
	compared := 0
	for step := 1; step <= steps; step++ {
		dist.run(t, 1)
		serial.run(t, 1)
		dn, sn := dist.p.DistributedNests(), serial.p.Nests()
		if len(dn) != len(sn) {
			t.Fatalf("step %d: %d distributed nests, %d serial", step, len(dn), len(sn))
		}
		for id, n := range dn {
			s, ok := sn[id]
			if !ok || s.StepCount() != n.StepCount() {
				t.Fatalf("step %d: distributed nest %d at substep %d has no serial twin", step, id, n.StepCount())
			}
			sameField(t, fmt.Sprintf("step %d, nest %d field", step, id), n.QCloud().Data, s.QCloud().Data, 0)
			compared++
		}
		sameField(t, fmt.Sprintf("step %d, parent qcloud", step),
			dist.p.Model().QCloud().Data, serial.p.Model().QCloud().Data, 0)
	}
	moves := 0
	for _, e := range dist.p.Events() {
		if e.ExecutedRedistTime > 0 {
			moves++
		}
	}
	t.Logf("%d nest fields compared over %d steps; %d adaptations executed a redistribution", compared, steps, moves)
	if moves == 0 {
		t.Fatal("no nest was redistributed; the drill never crossed a Redistribute")
	}
}

// idleRanksSeed is a monsoon seed under which, from step 20 to step 70, two
// nests are live on 208 of the 256 compute ranks.
const idleRanksSeed = 7

// idleAndLinkedRanks returns a compute rank that owns no nest block and two
// neighbouring ranks of one nest (the ends of a halo link).
func idleAndLinkedRanks(t *testing.T, p *Pipeline) (idle, from, to int) {
	t.Helper()
	g := p.tracker.Grid()
	owned := make([]bool, g.Size())
	from = -1
	for _, n := range p.nests {
		procs := n.Procs()
		for _, r := range g.Ranks(procs) {
			owned[r] = true
		}
		if procs.Width() > 1 {
			from = g.Rank(geom.Point{X: procs.X0, Y: procs.Y0})
			to = g.Rank(geom.Point{X: procs.X0 + 1, Y: procs.Y0})
		}
	}
	for r, o := range owned {
		if !o {
			return r, from, to
		}
	}
	t.Fatal("every compute rank owns a nest block")
	return
}

// TestFusedDispatchKeepsFaultDrills: the fused dispatch spawns only owner
// ranks, yet an injected crash of a rank that owns nothing still fails the
// step it is scheduled for, and a dropped halo message still times out its
// receiver instead of hanging the step.
func TestFusedDispatchKeepsFaultDrills(t *testing.T) {
	t.Run("crash of an idle rank", func(t *testing.T) {
		r := newMonsoonRun(t, idleRanksSeed, true)
		r.run(t, 31)
		idle, from, _ := idleAndLinkedRanks(t, r.p)
		if from < 0 {
			t.Fatal("no multi-rank nest: the step would dispatch nothing to crash beside")
		}
		r.p.SetFaultPlan(faults.NewPlan(1).CrashRank(33, idle))
		r.run(t, 1) // step 32: scheduled for later, must not fire
		err := r.p.Step()
		if err == nil || !strings.Contains(err.Error(), "injected crash of rank") {
			t.Fatalf("step 33 returned %v, want the injected crash of idle rank %d", err, idle)
		}
		if r.p.StepCount() != 33 {
			t.Fatalf("crash surfaced at step %d, want 33", r.p.StepCount())
		}
	})
	t.Run("dropped halo message", func(t *testing.T) {
		r := newMonsoonRun(t, idleRanksSeed, true)
		r.run(t, 31)
		_, from, to := idleAndLinkedRanks(t, r.p)
		if from < 0 {
			t.Fatal("no multi-rank nest: no halo link to drop a message on")
		}
		plan := faults.NewPlan(1).DropMessage(from, to, faults.Wildcard, 1).WithRecvTimeout(100 * time.Millisecond)
		r.p.SetFaultPlan(plan)
		done := make(chan error, 1)
		go func() { done <- r.p.Step() }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "timed out") {
				t.Fatalf("step returned %v, want a receive timeout", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("step hung on the dropped halo message")
		}
		// The sender runs its substeps back to back, so it may have opened
		// (and lost the first message of) a later substep's stream as well.
		inj := plan.Injections()
		for _, in := range inj {
			if in.Kind != faults.KindMessageDrop || in.From != from || in.To != to {
				t.Fatalf("injection log %+v", inj)
			}
		}
		if len(inj) == 0 {
			t.Fatal("no message was dropped")
		}
	})
}

// TestFusedDispatchEmitsOneNestStepEventPerNest: the caller emits the
// nest-step events after the dispatch, in nest-ID order, one per nest.
func TestFusedDispatchEmitsOneNestStepEventPerNest(t *testing.T) {
	r := newMonsoonRun(t, idleRanksSeed, true)
	r.run(t, 31)
	tr := obs.New(obs.Options{})
	r.p.SetTracer(tr)
	r.run(t, 1)
	var ids []int
	events, _ := tr.Events()
	for _, e := range events {
		if e.Kind == "nest-step" {
			if e.Step != 32 || e.DurNS <= 0 {
				t.Fatalf("nest-step event %+v", e)
			}
			ids = append(ids, e.NestID)
		}
	}
	var want []int
	for _, spec := range r.p.ActiveSet() {
		want = append(want, spec.ID)
	}
	slices.Sort(want)
	if len(ids) < 2 || !slices.Equal(ids, want) {
		t.Fatalf("nest-step events for nests %v, live set %v", ids, want)
	}
}
