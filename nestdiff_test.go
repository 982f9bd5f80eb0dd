package nestdiff

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestNewTorusSystem(t *testing.T) {
	sys, err := NewTorusSystem(256)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Grid.Size() != 256 || sys.Net.Name() != "torus3d" {
		t.Fatalf("system = %+v", sys)
	}
	if _, err := NewTorusSystem(-1); err == nil {
		t.Fatal("negative cores accepted")
	}
	if _, err := NewTorusSystem(0); err == nil {
		t.Fatal("zero cores accepted")
	}
}

func TestFacadeTrackerRoundTrip(t *testing.T) {
	sys, err := NewTorusSystem(1024)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sys.NewTracker(Diffusion)
	if err != nil {
		t.Fatal(err)
	}
	set := Set{
		{ID: 1, Region: NewRect(10, 10, 70, 70)},
		{ID: 2, Region: NewRect(200, 100, 90, 90)},
	}
	sm, err := tr.Apply(set)
	if err != nil {
		t.Fatal(err)
	}
	if sm.ExecTime <= 0 {
		t.Fatal("no execution time")
	}
	rows := tr.Allocation().Table()
	if len(rows) != 2 {
		t.Fatalf("allocation rows = %d", len(rows))
	}
	// Second apply with churn produces redistribution metrics.
	next := Set{
		{ID: 2, Region: NewRect(200, 100, 90, 90)},
		{ID: 3, Region: NewRect(400, 150, 80, 80)},
	}
	sm, err = tr.Apply(next)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Redist.TotalBytes == 0 {
		t.Fatal("no redistribution metrics for retained nest")
	}
}

func TestFacadeScenarioHelpers(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.Steps = 3
	sets, err := GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 4 {
		t.Fatalf("sets = %d", len(sets))
	}
	sched := MonsoonSchedule(DefaultMonsoonConfig())
	if len(sched) == 0 {
		t.Fatal("empty monsoon schedule")
	}
}

// stormSplits steps a one-storm weather model and returns its split files
// over a 4×3 process grid.
func stormSplits(t *testing.T) ([]Split, Grid) {
	t.Helper()
	cfg := DefaultWeatherConfig()
	cfg.NX, cfg.NY = 48, 36
	cfg.SpawnRate = 0
	m, err := NewWeatherModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InjectCell(Cell{X: 24, Y: 18, Radius: 4, Peak: 2.5, Life: 7200}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		m.Step()
	}
	pg := NewGrid(4, 3)
	splits, err := m.Splits(pg)
	if err != nil {
		t.Fatal(err)
	}
	return splits, pg
}

func TestFacadeWeatherAndPDA(t *testing.T) {
	splits, pg := stormSplits(t)
	rects, _, err := AnalyzeSplitsParallel(splits, pg, 4, DefaultPDAOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The strongest cluster must cover the storm core.
	if len(rects) == 0 || !rects[0].Overlaps(NewRect(25, 18, 1, 1)) {
		t.Fatalf("primary nest of %v misses the storm core", rects)
	}
}

func TestFacadePipeline(t *testing.T) {
	sys, err := NewTorusSystem(64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultWeatherConfig()
	cfg.NX, cfg.NY = 48, 36
	cfg.SpawnRate = 0
	m, err := NewWeatherModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InjectCell(Cell{X: 24, Y: 18, Radius: 4, Peak: 2.5, Life: 7200}); err != nil {
		t.Fatal(err)
	}
	tr, err := sys.NewTracker(Dynamic)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := sys.NewPipeline(m, tr, PipelineConfig{
		WRFGrid:       NewGrid(4, 3),
		AnalysisRanks: 3,
		Interval:      5,
		PDA:           DefaultPDAOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Run(30); err != nil {
		t.Fatal(err)
	}
	if len(pipe.Events()) != 6 {
		t.Fatalf("events = %d", len(pipe.Events()))
	}
	if len(pipe.Nests()) == 0 {
		t.Fatal("storm not nested")
	}
}

func TestFacadeRedistributeField(t *testing.T) {
	sys, err := NewTorusSystem(64)
	if err != nil {
		t.Fatal(err)
	}
	const nx, ny = 50, 40
	src := &Field{NX: nx, NY: ny, Data: make([]float64, nx*ny)}
	rng := rand.New(rand.NewSource(5))
	for i := range src.Data {
		src.Data[i] = rng.Float64()
	}
	tr := Transfer{
		NestID: 1, NX: nx, NY: ny,
		Old: NewRect(0, 0, 4, 4), New: NewRect(4, 4, 4, 4), ElemBytes: 8,
	}
	dst, elapsed, err := sys.RedistributeField(tr, src)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatal("free redistribution")
	}
	for i := range src.Data {
		if dst.Data[i] != src.Data[i] {
			t.Fatal("data corrupted")
		}
	}
}

// TestFacadeCheckpointRoundTrips: a serial pipeline saved with
// Pipeline.SaveState and brought back by System.RestorePipeline ends with
// the events and parent field of the uninterrupted run.
func TestFacadeCheckpointRoundTrips(t *testing.T) {
	sys, err := NewTorusSystem(48)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultWeatherConfig()
	cfg.NX, cfg.NY = 96, 72
	cfg.SpawnRate = 0
	m, err := NewWeatherModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Cell{
		{X: 20, Y: 18, Radius: 5, Peak: 2.5, Life: 4 * 3600},
		{X: 70, Y: 50, VX: -1.5e-3, Radius: 4, Peak: 2.0, Life: 5 * 3600},
	} {
		if err := m.InjectCell(c); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := sys.NewTracker(Diffusion)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sys.NewPipeline(m, tr, PipelineConfig{
		WRFGrid:       NewGrid(8, 6),
		AnalysisRanks: 6,
		Interval:      5,
		PDA:           DefaultPDAOptions(),
		MaxNests:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(30); err != nil {
		t.Fatal(err)
	}
	if len(ref.Nests()) == 0 {
		t.Fatal("no nest live at the checkpoint; the round trip would not restore one")
	}
	var buf bytes.Buffer
	if err := ref.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	eventsAtSave := len(ref.Events())
	restored, err := sys.RestorePipeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(30); err != nil {
		t.Fatal(err)
	}
	if err := restored.Run(30); err != nil {
		t.Fatal(err)
	}
	if len(ref.Events()) == eventsAtSave {
		t.Fatal("no adaptation after the checkpoint; the comparison is vacuous")
	}
	if !reflect.DeepEqual(restored.Events(), ref.Events()) {
		t.Fatalf("events diverged:\nrestored      %+v\nuninterrupted %+v", restored.Events(), ref.Events())
	}
	if !slices.Equal(restored.Model().QCloud().Data, ref.Model().QCloud().Data) {
		t.Fatal("restored parent field differs from the uninterrupted run's")
	}
	if len(restored.Nests()) != len(ref.Nests()) {
		t.Fatalf("restored run has %d nests, uninterrupted %d", len(restored.Nests()), len(ref.Nests()))
	}
	for id, n := range ref.Nests() {
		r, ok := restored.Nests()[id]
		if !ok || !slices.Equal(r.QCloud().Data, n.QCloud().Data) {
			t.Fatalf("restored nest %d differs from the uninterrupted run's", id)
		}
	}
}

func TestFacadeAnalyzeSplitsParallel(t *testing.T) {
	splits, pg := stormSplits(t)
	rects, clusters, err := AnalyzeSplitsParallel(splits, pg, 4, DefaultPDAOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rects) == 0 || len(clusters) != len(rects) {
		t.Fatalf("parallel analysis found %d/%d", len(rects), len(clusters))
	}
	if _, _, err := AnalyzeSplitsParallel(splits, pg, 0, DefaultPDAOptions()); err == nil {
		t.Fatal("zero ranks accepted")
	}
}
