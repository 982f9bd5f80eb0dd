package wrfsim

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// testGenesis is a storm schedule with a step-0 entry, two entries due at
// one step and quiet gaps between, on the smallConfig domain.
func testGenesis() []TimedCell {
	return []TimedCell{
		{AtStep: 0, Cell: Cell{X: 15, Y: 12, VX: 1e-3, Radius: 4, Peak: 2, Life: 7200}},
		{AtStep: 3, Cell: Cell{X: 40, Y: 30, VY: -5e-4, Radius: 3, Peak: 1.5, Life: 3600}},
		{AtStep: 7, Cell: Cell{X: 25, Y: 20, Radius: 5, Peak: 2.5, Life: 10800}},
		{AtStep: 7, Cell: Cell{X: 27, Y: 21, Radius: 3, Peak: 1, Life: 5400}},
		{AtStep: 12, Cell: Cell{X: 50, Y: 10, VX: -1e-3, Radius: 4, Peak: 2, Life: 7200}},
	}
}

// injectDue is the loop callers ran before Config.Genesis existed: inject
// what is due at the model's step, then step.
func injectDue(t *testing.T, sched []TimedCell, next *int, step int, inject func(Cell) error) {
	t.Helper()
	for ; *next < len(sched) && sched[*next].AtStep == step; *next++ {
		if err := inject(sched[*next].Cell); err != nil {
			t.Fatal(err)
		}
	}
}

// sameModel requires two serial models to hold identical cells and
// QCloud samples.
func sameModel(t *testing.T, what string, step int, got, want *Model) {
	t.Helper()
	if !reflect.DeepEqual(got.Cells(), want.Cells()) {
		t.Fatalf("%s, step %d: cells %+v, want %+v", what, step, got.Cells(), want.Cells())
	}
	if !slices.Equal(got.QCloud().Data, want.QCloud().Data) {
		t.Fatalf("%s, step %d: QCloud differs", what, step)
	}
}

// TestGenesisMatchesExternalInjection: a model whose Config carries the
// schedule is bit-identical, every step, to one fed the same cells by the
// external inject-then-step loop.
func TestGenesisMatchesExternalInjection(t *testing.T) {
	const steps = 20
	sched := testGenesis()
	plain := smallConfig()
	plain.MergeEnabled = true
	scripted := plain
	scripted.Genesis = sched

	t.Run("Model", func(t *testing.T) {
		got, want := mustModel(t, scripted), mustModel(t, plain)
		next := 0
		for s := 0; s < steps; s++ {
			injectDue(t, sched, &next, want.StepCount(), want.InjectCell)
			want.Step()
			got.Step()
			sameModel(t, "Genesis vs external loop", s+1, got, want)
		}
	})
}

// TestGenesisSurvivesRestore: a model saved in the middle of its schedule
// — including at a step with an entry still due — and brought back by
// RestoreModel continues bit-identically to the uninterrupted run.
func TestGenesisSurvivesRestore(t *testing.T) {
	cfg := smallConfig()
	cfg.Genesis = testGenesis()
	for _, at := range []int{0, 3, 5, 7, 12, 15} {
		ref := mustModel(t, cfg)
		for s := 0; s < at; s++ {
			ref.Step()
		}
		restored, err := RestoreModel(ref.Config(), slices.Clone(ref.QCloud().Data), ref.Cells(),
			ref.RNGState(), ref.Time(), ref.StepCount())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(restored.Config().Genesis, cfg.Genesis) {
			t.Fatalf("saved at step %d: RestoreModel returned schedule %+v", at, restored.Config().Genesis)
		}
		for s := at; s < 20; s++ {
			ref.Step()
			restored.Step()
			sameModel(t, "RestoreModel", s+1, restored, ref)
		}
	}
}

func TestNewModelRejectsBadGenesis(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sched []TimedCell
		want  string
	}{
		{"unsorted", []TimedCell{{AtStep: 4, Cell: stormCell()}, {AtStep: 2, Cell: stormCell()}}, "ascending order"},
		{"negative step", []TimedCell{{AtStep: -1, Cell: stormCell()}}, "ascending order"},
		{"non-physical cell", []TimedCell{{AtStep: 0, Cell: stormCell()}, {AtStep: 1, Cell: Cell{Radius: 1, Life: 1}}}, "entry 1: wrfsim: non-physical cell"},
	} {
		cfg := smallConfig()
		cfg.Genesis = tc.sched
		if _, err := NewModel(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewModel error %v, want one containing %q", tc.name, err, tc.want)
		}
		if _, err := RestoreModel(cfg, make([]float64, cfg.NX*cfg.NY), nil, 0, 0, 0); err == nil {
			t.Errorf("%s: RestoreModel accepted the schedule", tc.name)
		}
	}
}
