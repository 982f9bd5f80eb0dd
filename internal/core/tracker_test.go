package core

import (
	"bytes"
	"encoding/csv"
	"errors"
	"strconv"
	"testing"

	"nestdiff/internal/geom"
	"nestdiff/internal/htree"
	"nestdiff/internal/perfmodel"
	"nestdiff/internal/scenario"
	"nestdiff/internal/topology"
)

func testEnv(t testing.TB, g geom.Grid) (topology.Network, *perfmodel.ExecModel, *perfmodel.Oracle) {
	t.Helper()
	net, err := topology.NewTorus3D(g, topology.TorusDimsFor(g.Size()), topology.DefaultTorusParams())
	if err != nil {
		t.Fatal(err)
	}
	oracle := perfmodel.DefaultOracle()
	model, err := perfmodel.Profile(oracle, perfmodel.DefaultSampleDomains(), perfmodel.DefaultProcSizes())
	if err != nil {
		t.Fatal(err)
	}
	return net, model, oracle
}

func newTestTracker(t testing.TB, g geom.Grid, s Strategy) *Tracker {
	t.Helper()
	net, model, oracle := testEnv(t, g)
	tr, err := NewTracker(g, net, model, oracle, s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func specSet(regions ...geom.Rect) scenario.Set {
	s := make(scenario.Set, len(regions))
	for i, r := range regions {
		s[i] = scenario.NestSpec{ID: i + 1, Region: r}
	}
	return s
}

func TestNewTrackerValidation(t *testing.T) {
	g := geom.NewGrid(16, 16)
	net, model, oracle := testEnv(t, g)
	if _, err := NewTracker(g, nil, model, oracle, Scratch, DefaultOptions()); err == nil {
		t.Error("nil network accepted")
	}
	big := geom.NewGrid(32, 32)
	if _, err := NewTracker(big, net, model, oracle, Scratch, DefaultOptions()); err == nil {
		t.Error("undersized network accepted")
	}
	bad := DefaultOptions()
	bad.ElemBytes = 0
	if _, err := NewTracker(g, net, model, oracle, Scratch, bad); err == nil {
		t.Error("zero ElemBytes accepted")
	}
	bad = DefaultOptions()
	bad.Ratio = 0
	if _, err := NewTracker(g, net, model, oracle, Scratch, bad); err == nil {
		t.Error("zero ratio accepted")
	}
}

func TestStrategyString(t *testing.T) {
	if Scratch.String() != "scratch" || Diffusion.String() != "diffusion" || Dynamic.String() != "dynamic" {
		t.Fatal("Strategy.String broken")
	}
	if Strategy(9).String() == "" {
		t.Fatal("unknown strategy renders empty")
	}
}

func TestTrackerFirstApplyAllocatesWithoutRedistribution(t *testing.T) {
	g := geom.NewGrid(16, 16)
	tr := newTestTracker(t, g, Diffusion)
	set := specSet(geom.NewRect(10, 10, 60, 60), geom.NewRect(200, 100, 80, 80))
	sm, err := tr.Apply(set)
	if err != nil {
		t.Fatal(err)
	}
	if sm.RedistTime != 0 {
		t.Fatalf("first apply has redistribution time %g", sm.RedistTime)
	}
	if sm.ExecTime <= 0 || sm.PredictedExecTime <= 0 {
		t.Fatal("execution times missing")
	}
	a := tr.Allocation()
	if a == nil || len(a.Rects) != 2 {
		t.Fatalf("allocation = %v", a)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTrackerRetainedNestRedistributes(t *testing.T) {
	g := geom.NewGrid(16, 16)
	tr := newTestTracker(t, g, Diffusion)
	if _, err := tr.Apply(specSet(
		geom.NewRect(0, 0, 70, 70),
		geom.NewRect(200, 100, 70, 70),
		geom.NewRect(400, 200, 70, 70),
	)); err != nil {
		t.Fatal(err)
	}
	// Delete nest 3, retain 1 and 2, add nest 4.
	next := scenario.Set{
		{ID: 1, Region: geom.NewRect(5, 5, 70, 70)},
		{ID: 2, Region: geom.NewRect(205, 100, 70, 70)},
		{ID: 4, Region: geom.NewRect(300, 50, 90, 90)},
	}
	sm, err := tr.Apply(next)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Used != Diffusion {
		t.Fatalf("used %v, want diffusion", sm.Used)
	}
	if sm.RedistTime <= 0 {
		t.Fatal("no redistribution time recorded for retained nests")
	}
	if sm.Redist.TotalBytes == 0 {
		t.Fatal("no redistribution metrics recorded")
	}
	if sm.RedistTime < sm.PredictedRedistTime {
		t.Fatalf("actual %g below prediction %g: contention term missing",
			sm.RedistTime, sm.PredictedRedistTime)
	}
	if err := tr.Allocation().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTrackerEmptySetFreesEverything(t *testing.T) {
	g := geom.NewGrid(16, 16)
	tr := newTestTracker(t, g, Diffusion)
	if _, err := tr.Apply(specSet(geom.NewRect(0, 0, 80, 80))); err != nil {
		t.Fatal(err)
	}
	sm, err := tr.Apply(scenario.Set{})
	if err != nil {
		t.Fatal(err)
	}
	if sm.ExecTime != 0 || sm.RedistTime != 0 {
		t.Fatalf("empty set has costs: %+v", sm)
	}
	if len(tr.Allocation().Rects) != 0 {
		t.Fatal("allocation not emptied")
	}
	// And we can start again from empty.
	if _, err := tr.Apply(specSet(geom.NewRect(9, 9, 77, 77))); err != nil {
		t.Fatal(err)
	}
}

func runScenario(t *testing.T, g geom.Grid, s Strategy, sets []scenario.Set) *Tracker {
	t.Helper()
	tr := newTestTracker(t, g, s)
	for i, set := range sets {
		if _, err := tr.Apply(set); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	return tr
}

func syntheticSets(t *testing.T, steps int) []scenario.Set {
	t.Helper()
	cfg := scenario.DefaultSyntheticConfig()
	cfg.Steps = steps
	sets, err := scenario.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sets
}

func TestDiffusionBeatsScratchOnRedistribution(t *testing.T) {
	// The paper's headline: over synthetic churn, diffusion reduces total
	// redistribution time versus scratch (Table IV), at a small execution
	// time premium (§V-D reports ~4%).
	g := geom.NewGrid(32, 32)
	sets := syntheticSets(t, 25)
	trS := runScenario(t, g, Scratch, sets)
	trD := runScenario(t, g, Diffusion, sets)
	execS, redS := trS.Totals()
	execD, redD := trD.Totals()
	if redD >= redS {
		t.Fatalf("diffusion redistribution %g not below scratch %g", redD, redS)
	}
	if execD < execS {
		t.Logf("note: diffusion execution %g below scratch %g (paper expects slight premium)", execD, execS)
	}
	if execD > execS*1.25 {
		t.Fatalf("diffusion execution premium too large: %g vs %g", execD, execS)
	}
	// Hop-bytes advantage (Fig. 10): diffusion must average lower.
	var hbS, hbD float64
	for i := 1; i < len(trS.Steps()); i++ {
		hbS += trS.Steps()[i].Redist.AvgHopBytes
		hbD += trD.Steps()[i].Redist.AvgHopBytes
	}
	if hbD >= hbS {
		t.Fatalf("diffusion avg hop-bytes %g not below scratch %g", hbD, hbS)
	}
}

func TestDynamicPicksAndTracksCorrectness(t *testing.T) {
	g := geom.NewGrid(32, 32)
	sets := syntheticSets(t, 12)
	tr := runScenario(t, g, Dynamic, sets)
	steps := tr.Steps()
	if len(steps) != 13 {
		t.Fatalf("recorded %d steps", len(steps))
	}
	picks := map[Strategy]int{}
	correct, total := 0, 0
	for _, s := range steps[1:] {
		picks[s.Used]++
		if s.CandidateTotals == nil {
			t.Fatal("dynamic step missing candidate totals")
		}
		total++
		if s.DynamicCorrect {
			correct++
		}
	}
	if picks[Scratch]+picks[Diffusion] != total {
		t.Fatalf("picks %v do not cover %d steps", picks, total)
	}
	// §V-F: predictions are imperfect but mostly right (10/12 in the
	// paper). Demand a clear majority.
	if correct*3 < total*2 {
		t.Fatalf("dynamic correct on %d/%d steps — predictor broken", correct, total)
	}
}

func TestDynamicTotalsNeverWorseThanWorstCandidate(t *testing.T) {
	g := geom.NewGrid(32, 32)
	sets := syntheticSets(t, 15)
	trS := runScenario(t, g, Scratch, sets)
	trD := runScenario(t, g, Diffusion, sets)
	trDyn := runScenario(t, g, Dynamic, sets)
	sumOf := func(tr *Tracker) float64 {
		e, r := tr.Totals()
		return e + r
	}
	worst := sumOf(trS)
	if w := sumOf(trD); w > worst {
		worst = w
	}
	// Dynamic follows its own allocation trajectory, so exact dominance
	// per-step is not guaranteed, but over a run it must not exceed the
	// worst pure strategy by more than a small margin.
	if got := sumOf(trDyn); got > worst*1.05 {
		t.Fatalf("dynamic total %g exceeds worst pure strategy %g", got, worst)
	}
}

func TestTrackerStepsAccumulate(t *testing.T) {
	g := geom.NewGrid(16, 16)
	tr := newTestTracker(t, g, Scratch)
	sets := syntheticSets(t, 5)
	for _, s := range sets {
		if _, err := tr.Apply(s); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.Steps()) != 6 {
		t.Fatalf("steps = %d, want 6", len(tr.Steps()))
	}
	exec, red := tr.Totals()
	if exec <= 0 {
		t.Fatal("no execution time accumulated")
	}
	if red <= 0 {
		t.Fatal("no redistribution time accumulated")
	}
}

func TestWriteCSV(t *testing.T) {
	g := geom.NewGrid(16, 16)
	tr := newTestTracker(t, g, Dynamic)
	for _, set := range syntheticSets(t, 4) {
		if _, err := tr.Apply(set); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 6 { // header + 5 steps
		t.Fatalf("csv rows = %d, want 6", len(records))
	}
	if records[0][0] != "step" || len(records[0]) != 11 {
		t.Fatalf("csv header = %v", records[0])
	}
	for i, rec := range records[1:] {
		if rec[1] != "scratch" && rec[1] != "diffusion" {
			t.Fatalf("row %d strategy = %q", i, rec[1])
		}
		if _, err := strconv.ParseFloat(rec[2], 64); err != nil {
			t.Fatalf("row %d exec not numeric: %v", i, err)
		}
	}
}

func TestTrackerSaveRestoreContinuesIdentically(t *testing.T) {
	g := geom.NewGrid(32, 32)
	sets := syntheticSets(t, 12)

	// Reference: uninterrupted diffusion run.
	ref := newTestTracker(t, g, Diffusion)
	for _, set := range sets {
		if _, err := ref.Apply(set); err != nil {
			t.Fatal(err)
		}
	}

	// Interrupted run: checkpoint after 6 sets, restore, continue.
	tr := newTestTracker(t, g, Diffusion)
	for _, set := range sets[:6] {
		if _, err := tr.Apply(set); err != nil {
			t.Fatal(err)
		}
	}
	net, model, oracle := testEnv(t, g)
	restored, err := restoreTrackerState(tr.state(), net, model, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Steps()) != 6 {
		t.Fatalf("restored steps = %d", len(restored.Steps()))
	}
	for _, set := range sets[6:] {
		if _, err := restored.Apply(set); err != nil {
			t.Fatal(err)
		}
	}
	// The continued run must match the uninterrupted one exactly — the
	// restored tree drives identical diffusion decisions.
	wantRows := ref.Allocation().Table()
	gotRows := restored.Allocation().Table()
	if len(wantRows) != len(gotRows) {
		t.Fatalf("allocation sizes differ: %d vs %d", len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if wantRows[i] != gotRows[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, gotRows[i], wantRows[i])
		}
	}
	we, wr := ref.Totals()
	ge, gr := restored.Totals()
	if we != ge || wr != gr {
		t.Fatalf("totals differ: exec %g vs %g, redist %g vs %g", ge, we, gr, wr)
	}
}

// TestRestoreTrackerRejectsGarbage: every guard of restoreTrackerState
// turns a corrupt tracker record into an error, never a panic.
func TestRestoreTrackerRejectsGarbage(t *testing.T) {
	g := geom.NewGrid(8, 8)
	tr := newTestTracker(t, g, Diffusion)
	if _, err := tr.Apply(specSet(geom.NewRect(0, 0, 40, 40), geom.NewRect(50, 50, 30, 30))); err != nil {
		t.Fatal(err)
	}
	net, model, oracle := testEnv(t, g)
	small, _, _ := testEnv(t, geom.NewGrid(4, 4))
	for _, tc := range []struct {
		name    string
		corrupt func(*trackerState)
		net     topology.Network
		want    error
	}{
		{name: "version", corrupt: func(st *trackerState) { st.Version = trackerStateVersion + 1 }},
		{name: "zero grid", corrupt: func(st *trackerState) { st.GridPx = 0 }},
		{name: "negative grid", corrupt: func(st *trackerState) { st.GridPy = -8 }},
		{name: "network smaller than grid", corrupt: func(*trackerState) {}, net: small, want: ErrProcMismatch},
		{name: "tree with one child", corrupt: func(st *trackerState) {
			st.Tree = []htree.FlatNode{{ID: -1, Left: 0, Right: -1}}
		}},
		{name: "tree child out of range", corrupt: func(st *trackerState) { st.Tree[0].Right = len(st.Tree) }},
		{name: "rect outside grid", corrupt: func(st *trackerState) { st.Rects[1] = geom.NewRect(0, 0, 9, 9) }},
		{name: "overlapping rects", corrupt: func(st *trackerState) { st.Rects[2] = st.Rects[1] }},
	} {
		st := tr.state()
		tc.corrupt(&st)
		n := net
		if tc.net != nil {
			n = tc.net
		}
		_, err := restoreTrackerState(st, n, model, oracle)
		if err == nil {
			t.Errorf("%s: corrupt tracker state accepted", tc.name)
		} else if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
	}
	// The uncorrupted record restores: each case above failed on its
	// corruption alone.
	if _, err := restoreTrackerState(tr.state(), net, model, oracle); err != nil {
		t.Fatal(err)
	}
}

func TestSaveRestoreBeforeFirstApply(t *testing.T) {
	g := geom.NewGrid(8, 8)
	tr := newTestTracker(t, g, Scratch)
	net, model, oracle := testEnv(t, g)
	restored, err := restoreTrackerState(tr.state(), net, model, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Allocation() != nil {
		t.Fatal("restored empty tracker has an allocation")
	}
	if _, err := restored.Apply(specSet(geom.NewRect(0, 0, 70, 70))); err != nil {
		t.Fatal(err)
	}
}
