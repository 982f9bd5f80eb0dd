package wrfsim

import (
	"bytes"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"nestdiff/internal/geom"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NX, cfg.NY = 60, 45
	cfg.SpawnRate = 0
	return cfg
}

func mustModel(t *testing.T, cfg Config) *Model {
	t.Helper()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func stormCell() Cell {
	return Cell{X: 30, Y: 22, Radius: 4, Peak: 2, Life: 7200}
}

func TestNewModelValidation(t *testing.T) {
	bad := smallConfig()
	bad.NX = 0
	if _, err := NewModel(bad); err == nil {
		t.Error("zero NX accepted")
	}
	bad = smallConfig()
	bad.Dt = 0
	if _, err := NewModel(bad); err == nil {
		t.Error("zero Dt accepted")
	}
	bad = smallConfig()
	bad.DecayTau = -1
	if _, err := NewModel(bad); err == nil {
		t.Error("negative DecayTau accepted")
	}
}

func TestCellIntensityEnvelope(t *testing.T) {
	c := Cell{Peak: 2, Life: 100}
	if c.Intensity() != 0 {
		t.Error("newborn cell should start at 0 intensity")
	}
	c.Age = 50
	if math.Abs(c.Intensity()-2) > 1e-12 {
		t.Errorf("mid-life intensity = %g, want peak 2", c.Intensity())
	}
	c.Age = 100
	if c.Intensity() != 0 {
		t.Error("expired cell should emit 0")
	}
}

func TestClearSkyOLR(t *testing.T) {
	m := mustModel(t, smallConfig())
	if got := m.OLR().At(5, 5); got != m.Config().OLRClear {
		t.Fatalf("clear-sky OLR = %g, want %g", got, m.Config().OLRClear)
	}
}

func TestStormCreatesLowOLRRegion(t *testing.T) {
	// A convective cell must develop high QCLOUD and OLR below the paper's
	// 200 W/m² detection threshold at its core, while far-field stays
	// clear.
	m := mustModel(t, smallConfig())
	c := stormCell()
	if err := m.InjectCell(c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ { // one simulated hour
		m.Step()
	}
	core := m.OLR().At(int(c.X)+2, int(c.Y)) // slight downstream drift
	if core > 200 {
		t.Fatalf("storm core OLR = %g, want <= 200", core)
	}
	if q := m.QCloud().At(int(c.X)+2, int(c.Y)); q <= 0.5 {
		t.Fatalf("storm core QCLOUD = %g, want substantial", q)
	}
	farOLR := m.OLR().At(2, 40)
	if farOLR < 270 {
		t.Fatalf("far-field OLR = %g, want near clear-sky", farOLR)
	}
}

func TestCloudDecaysAfterCellDies(t *testing.T) {
	m := mustModel(t, smallConfig())
	c := stormCell()
	c.Life = 1800 // short-lived
	if err := m.InjectCell(c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		m.Step()
	}
	peak := m.QCloud().Max()
	for i := 0; i < 120; i++ { // four more hours
		m.Step()
	}
	if after := m.QCloud().Max(); after > peak/4 {
		t.Fatalf("cloud water %g did not decay from peak %g", after, peak)
	}
	if len(m.Cells()) != 0 {
		t.Fatal("expired cell not removed")
	}
}

func TestAdvectionMovesCloudDownstream(t *testing.T) {
	cfg := smallConfig()
	cfg.FlowU = 5e-3 // strong westerly
	cfg.FlowV = 0
	m := mustModel(t, cfg)
	cell := Cell{X: 15, Y: 22, VX: 0, VY: 0, Radius: 3, Peak: 2, Life: 600}
	if err := m.InjectCell(cell); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		m.Step()
	}
	centroidEarly := qcloudCentroidX(m)
	for i := 0; i < 25; i++ {
		m.Step()
	}
	centroidLate := qcloudCentroidX(m)
	if centroidLate <= centroidEarly {
		t.Fatalf("cloud centroid did not advect east: %g -> %g", centroidEarly, centroidLate)
	}
}

func qcloudCentroidX(m *Model) float64 {
	q := m.QCloud()
	var wsum, xsum float64
	for y := 0; y < q.NY; y++ {
		for x := 0; x < q.NX; x++ {
			v := q.At(x, y)
			wsum += v
			xsum += v * float64(x)
		}
	}
	if wsum == 0 {
		return 0
	}
	return xsum / wsum
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		cfg := smallConfig()
		cfg.SpawnRate = 4
		m := mustModel(t, cfg)
		for i := 0; i < 40; i++ {
			m.Step()
		}
		return m.QCloud().Sum()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("model not deterministic: %g vs %g", a, b)
	}
	if a == 0 {
		t.Fatal("spontaneous genesis produced no cloud")
	}
}

func TestInjectCellValidation(t *testing.T) {
	m := mustModel(t, smallConfig())
	if err := m.InjectCell(Cell{Radius: 0, Peak: 1, Life: 1}); err == nil {
		t.Error("zero radius accepted")
	}
	if err := m.InjectCell(Cell{Radius: 1, Peak: -1, Life: 1}); err == nil {
		t.Error("negative peak accepted")
	}
}

func TestSpawnNestInterpolatesParent(t *testing.T) {
	m := mustModel(t, smallConfig())
	if err := m.InjectCell(stormCell()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		m.Step()
	}
	region := geom.NewRect(20, 12, 20, 20)
	n, err := m.SpawnNest(1, region)
	if err != nil {
		t.Fatal(err)
	}
	nx, ny := n.Size()
	if nx != 60 || ny != 60 {
		t.Fatalf("nest extents %dx%d, want 60x60 (3x refinement)", nx, ny)
	}
	// The refined field must agree with the parent at corresponding points
	// (both sample the same smooth field).
	parentQ := m.QCloud().At(30, 22)
	nestQ := n.QCloud().Bilinear(float64((30-20)*3)+1, float64((22-12)*3)+1)
	if math.Abs(parentQ-nestQ) > 0.3*math.Max(parentQ, 1e-9) {
		t.Fatalf("nest/parent mismatch at storm core: parent %g, nest %g", parentQ, nestQ)
	}
}

func TestSpawnNestValidation(t *testing.T) {
	m := mustModel(t, smallConfig())
	if _, err := m.SpawnNest(1, geom.Rect{}); err == nil {
		t.Error("empty region accepted")
	}
	if _, err := m.SpawnNest(1, geom.NewRect(50, 40, 20, 20)); err == nil {
		t.Error("out-of-domain region accepted")
	}
}

func TestNestStepTracksParent(t *testing.T) {
	// Stepping nest and parent together keeps the nest's coarsened state
	// close to the parent's state over the region: same physics, finer
	// grid.
	m := mustModel(t, smallConfig())
	if err := m.InjectCell(stormCell()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m.Step()
	}
	region := geom.NewRect(18, 10, 24, 24)
	n, err := m.SpawnNest(1, region)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m.Step()
		n.Step(m)
	}
	if n.StepCount() != 10*NestRatio {
		t.Fatalf("nest substeps = %d, want %d", n.StepCount(), 10*NestRatio)
	}
	// Compare region means.
	parentMean := m.QCloud().Sub(region).Sum() / float64(region.Area())
	nestMean := n.QCloud().Sum() / float64(n.QCloud().NX*n.QCloud().NY)
	if parentMean <= 0 {
		t.Fatal("no cloud in region")
	}
	if rel := math.Abs(parentMean-nestMean) / parentMean; rel > 0.25 {
		t.Fatalf("nest mean %g deviates %.0f%% from parent mean %g", nestMean, rel*100, parentMean)
	}
}

func TestNestFeedback(t *testing.T) {
	m := mustModel(t, smallConfig())
	if err := m.InjectCell(stormCell()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m.Step()
	}
	region := geom.NewRect(18, 10, 24, 24)
	n, err := m.SpawnNest(1, region)
	if err != nil {
		t.Fatal(err)
	}
	n.QCloud().Fill(7)
	n.Feedback(m)
	if got := m.QCloud().At(20, 12); math.Abs(got-7) > 1e-9 {
		t.Fatalf("feedback did not write parent: %g", got)
	}
	// OLR must be refreshed consistently.
	wantOLR := m.Config().OLRClear - m.Config().OLRPerQ*7
	if wantOLR < m.Config().OLRMin {
		wantOLR = m.Config().OLRMin
	}
	if got := m.OLR().At(20, 12); math.Abs(got-wantOLR) > 1e-9 {
		t.Fatalf("feedback OLR = %g, want %g", got, wantOLR)
	}
}

func TestSplitsTileDomain(t *testing.T) {
	m := mustModel(t, smallConfig())
	pg := geom.NewGrid(4, 3)
	splits, err := m.Splits(pg)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 12 {
		t.Fatalf("%d splits, want 12", len(splits))
	}
	area := 0
	for i, s := range splits {
		if s.Rank != i {
			t.Fatalf("split %d has rank %d", i, s.Rank)
		}
		if s.QCloud.NX != s.Bounds.Width() || s.OLR.NY != s.Bounds.Height() {
			t.Fatal("split field extents mismatch bounds")
		}
		area += s.Bounds.Area()
	}
	if area != 60*45 {
		t.Fatalf("splits cover %d cells, want %d", area, 60*45)
	}
}

func TestSplitsRejectOversizedGrid(t *testing.T) {
	m := mustModel(t, smallConfig())
	if _, err := m.Splits(geom.NewGrid(100, 3)); err == nil {
		t.Fatal("oversized process grid accepted")
	}
}

func TestSplitSerializationRoundTrip(t *testing.T) {
	m := mustModel(t, smallConfig())
	if err := m.InjectCell(stormCell()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m.Step()
	}
	splits, err := m.Splits(geom.NewGrid(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSplit(&buf, splits[5]); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSplit(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := splits[5]
	if got.Rank != s.Rank || got.Px != s.Px || got.Py != s.Py ||
		got.Bounds != s.Bounds || got.Step != s.Step {
		t.Fatalf("header mismatch: %+v vs %+v", got, s)
	}
	for i := range s.QCloud.Data {
		if got.QCloud.Data[i] != s.QCloud.Data[i] || got.OLR.Data[i] != s.OLR.Data[i] {
			t.Fatal("payload mismatch")
		}
	}
}

func TestReadSplitRejectsGarbage(t *testing.T) {
	if _, err := ReadSplit(bytes.NewReader([]byte("not a split file at all........"))); err == nil {
		t.Fatal("garbage accepted")
	}
	var buf bytes.Buffer
	m := mustModel(t, smallConfig())
	splits, err := m.Splits(geom.NewGrid(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSplit(&buf, splits[0]); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadSplit(bytes.NewReader(truncated)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestWriteAndReadSplitFiles(t *testing.T) {
	dir := t.TempDir()
	m := mustModel(t, smallConfig())
	pg := geom.NewGrid(3, 2)
	if err := m.WriteSplitFiles(dir, pg); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 6; rank++ {
		s, err := ReadSplitFile(filepath.Join(dir, SplitFileName(0, rank)))
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		if s.Rank != rank {
			t.Fatalf("file for rank %d contains rank %d", rank, s.Rank)
		}
	}
	if _, err := ReadSplitFile(filepath.Join(dir, "missing.nsf")); err == nil {
		t.Fatal("missing file read succeeded")
	}
}

func TestMergeCellsCoalescesOverlapping(t *testing.T) {
	cfg := smallConfig()
	cfg.MergeEnabled = true
	m := mustModel(t, cfg)
	// Two cells on a collision course: B drifts west into A.
	if err := m.InjectCell(Cell{X: 28, Y: 22, Radius: 4, Peak: 1.5, Life: 14400}); err != nil {
		t.Fatal(err)
	}
	if err := m.InjectCell(Cell{X: 40, Y: 22, VX: -2e-3, Radius: 4, Peak: 1.2, Life: 10800}); err != nil {
		t.Fatal(err)
	}
	merged := false
	for i := 0; i < 60 && !merged; i++ {
		m.Step()
		merged = len(m.Cells()) == 1
	}
	if !merged {
		t.Fatal("colliding cells never merged")
	}
	c := m.Cells()[0]
	if c.Peak < 2.6 || c.Peak > 2.8 {
		t.Fatalf("merged peak %g, want conserved sum 2.7", c.Peak)
	}
	if c.X < 28 || c.X > 42 {
		t.Fatalf("merged centre %g outside parents' span", c.X)
	}
}

func TestMergeCellsDisabledByDefault(t *testing.T) {
	m := mustModel(t, smallConfig())
	if err := m.InjectCell(Cell{X: 30, Y: 22, Radius: 4, Peak: 1, Life: 14400}); err != nil {
		t.Fatal(err)
	}
	if err := m.InjectCell(Cell{X: 31, Y: 22, Radius: 4, Peak: 1, Life: 14400}); err != nil {
		t.Fatal(err)
	}
	m.Step()
	if len(m.Cells()) != 2 {
		t.Fatalf("cells merged with MergeEnabled=false: %d", len(m.Cells()))
	}
}

func TestMergeCellsChainCollapse(t *testing.T) {
	// Three mutually overlapping cells collapse to one in a single step.
	cfg := smallConfig()
	cfg.MergeEnabled = true
	m := mustModel(t, cfg)
	for _, x := range []float64{28, 31, 34} {
		if err := m.InjectCell(Cell{X: x, Y: 22, Radius: 4, Peak: 1, Life: 14400}); err != nil {
			t.Fatal(err)
		}
	}
	m.Step()
	if got := len(m.Cells()); got != 1 {
		t.Fatalf("chain of 3 overlapping cells -> %d cells, want 1", got)
	}
	if p := m.Cells()[0].Peak; p < 2.9 || p > 3.1 {
		t.Fatalf("merged peak %g, want 3", p)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	// A model saved mid-run and restored must continue bit-identically to
	// the uninterrupted run — including spontaneous genesis (PRNG state).
	cfg := smallConfig()
	cfg.SpawnRate = 6
	ref := mustModel(t, cfg)
	for i := 0; i < 30; i++ {
		ref.Step()
	}

	m := mustModel(t, cfg)
	for i := 0; i < 15; i++ {
		m.Step()
	}
	restored, err := RestoreModel(m.Config(), slices.Clone(m.QCloud().Data), m.Cells(),
		m.RNGState(), m.Time(), m.StepCount())
	if err != nil {
		t.Fatal(err)
	}
	if restored.StepCount() != 15 || restored.Time() != 15*cfg.Dt {
		t.Fatalf("restored bookkeeping: %d steps, %g s", restored.StepCount(), restored.Time())
	}
	for i := 0; i < 15; i++ {
		restored.Step()
	}
	if restored.QCloud().Sum() != ref.QCloud().Sum() {
		t.Fatalf("restored run diverged: %g vs %g", restored.QCloud().Sum(), ref.QCloud().Sum())
	}
	for i := range ref.QCloud().Data {
		if restored.QCloud().Data[i] != ref.QCloud().Data[i] {
			t.Fatalf("restored field differs at %d", i)
		}
	}
	if len(restored.Cells()) != len(ref.Cells()) {
		t.Fatal("restored cells differ")
	}
	// OLR is a diagnostic and must be consistent after restore.
	for i := range ref.OLR().Data {
		if restored.OLR().Data[i] != ref.OLR().Data[i] {
			t.Fatal("restored OLR differs")
		}
	}
}

func TestMergeCellsPeakSaturates(t *testing.T) {
	// Repeated in-place renewals must not intensify without bound.
	cfg := smallConfig()
	cfg.MergeEnabled = true
	m := mustModel(t, cfg)
	for i := 0; i < 6; i++ {
		if err := m.InjectCell(Cell{X: 30, Y: 22, Radius: 4, Peak: 2.5, Life: 14400}); err != nil {
			t.Fatal(err)
		}
		m.Step()
	}
	cells := m.Cells()
	if len(cells) != 1 {
		t.Fatalf("renewals did not merge: %d cells", len(cells))
	}
	if cells[0].Peak != mergePeakCap {
		t.Fatalf("merged peak %g, want saturation at the cap %g", cells[0].Peak, mergePeakCap)
	}
}
