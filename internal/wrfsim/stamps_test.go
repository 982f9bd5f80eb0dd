package wrfsim

import (
	"math"
	"slices"
	"testing"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
)

// The three deposit functions sourceStamps replaced, verbatim: the serial
// model and nest (Model.deposit), the distributed parent block
// (depositInto) and the distributed nest block (depositNest). Each computed
// its own window clip and made one AddSeparableGaussian call per cell per
// substep.

func oldDeposit(f *field.Field, dt float64, c Cell, ratio int, origin geom.Point) {
	inten := c.Intensity() * dt / 60
	if inten <= 0 {
		return
	}
	r := float64(ratio)
	cx := (c.X - float64(origin.X)) * r
	cy := (c.Y - float64(origin.Y)) * r
	rad := c.Radius * r
	x0 := max(0, int(cx-3*rad))
	x1 := min(f.NX-1, int(cx+3*rad)+1)
	y0 := max(0, int(cy-3*rad))
	y1 := min(f.NY-1, int(cy+3*rad)+1)
	f.AddSeparableGaussian(cx, cy, inten, 1/(2*rad*rad), x0, y0, x1, y1, 0, 0)
}

func oldDepositInto(f *field.Field, block geom.Rect, c Cell, dt float64) {
	inten := c.Intensity() * dt / 60
	if inten <= 0 {
		return
	}
	rad := c.Radius
	x0 := max(block.X0, int(c.X-3*rad))
	x1 := min(block.X1-1, int(c.X+3*rad)+1)
	y0 := max(block.Y0, int(c.Y-3*rad))
	y1 := min(block.Y1-1, int(c.Y+3*rad)+1)
	f.AddSeparableGaussian(c.X, c.Y, inten, 1/(2*rad*rad), x0, y0, x1, y1, block.X0, block.Y0)
}

func oldDepositNest(f *field.Field, blk geom.Rect, c Cell, dt float64, region geom.Rect) {
	inten := c.Intensity() * dt / 60
	if inten <= 0 {
		return
	}
	ratio := float64(NestRatio)
	cx := (c.X - float64(region.X0)) * ratio
	cy := (c.Y - float64(region.Y0)) * ratio
	rad := c.Radius * ratio
	nx := region.Width() * NestRatio
	ny := region.Height() * NestRatio
	x0 := max(blk.X0, max(0, int(cx-3*rad)))
	x1 := min(blk.X1-1, min(nx-1, int(cx+3*rad)+1))
	y0 := max(blk.Y0, max(0, int(cy-3*rad)))
	y1 := min(blk.Y1-1, min(ny-1, int(cy+3*rad)+1))
	f.AddSeparableGaussian(cx, cy, inten, 1/(2*rad*rad), x0, y0, x1, y1, blk.X0, blk.Y0)
}

// stampCells covers every window a clip has to handle: inside the target,
// across each border, across a block corner, wholly outside, and a cell
// with no source left.
func stampCells() []Cell {
	return []Cell{
		{X: 30.3, Y: 22.7, Radius: 4, Peak: 2, Age: 1800, Life: 7200},
		{X: 1.2, Y: 40.9, Radius: 5, Peak: 1.5, Age: 600, Life: 7200},   // across the west border
		{X: 94.6, Y: 70.1, Radius: 6, Peak: 2.5, Age: 3000, Life: 9000}, // across the south-east corner
		{X: 24.1, Y: 20.2, Radius: 3, Peak: 1.1, Age: 100, Life: 3600},  // across a block corner below
		{X: -20, Y: -20, Radius: 2, Peak: 1, Age: 100, Life: 3600},      // window misses everything
		{X: 40, Y: 30, Radius: 4, Peak: 2, Age: 7200, Life: 7200},       // spent: zero intensity
		{X: 50.5, Y: 36.5, Radius: 9, Peak: 3, Age: 5000, Life: 10800},  // wider than a block
	}
}

func requireSameBits(t *testing.T, what string, got, want *field.Field) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: sample (%d,%d) = %g, want %g (must be bit-identical)",
				what, i%want.NX, i/want.NX, got.Data[i], want.Data[i])
		}
	}
}

// TestSourceStampsMatchPerSubstepDeposits holds build-once/apply-per-substep
// to what it replaced — every cell's window re-clipped and its tables
// recomputed in every substep — bit for bit, for each of the three clips.
func TestSourceStampsMatchPerSubstepDeposits(t *testing.T) {
	const nx, ny, dt = 96, 72, 120.0
	cells := stampCells()
	seed := func(f *field.Field) *field.Field {
		for i := range f.Data {
			f.Data[i] = float64(i%13) * 0.125
		}
		return f
	}
	var stamps sourceStamps // one buffer across all cases: reuse must not leak state

	t.Run("serial model and nest", func(t *testing.T) {
		for _, c := range []struct {
			ratio  int
			region geom.Rect
		}{
			{1, geom.NewRect(0, 0, nx, ny)},
			{NestRatio, geom.NewRect(12, 10, 24, 20)},
			{NestRatio, geom.NewRect(60, 50, 36, 22)}, // touches the parent's south-east corner
		} {
			origin := geom.Point{X: c.region.X0, Y: c.region.Y0}
			want := seed(field.New(c.region.Width()*c.ratio, c.region.Height()*c.ratio))
			got := want.Clone()
			stamps.build(cells, dt, c.ratio, origin, got.Bounds())
			for s := 0; s < c.ratio; s++ {
				for _, cell := range cells {
					cell.Peak = cell.Peak / float64(c.ratio)
					oldDeposit(want, dt, cell, c.ratio, origin)
				}
				stamps.addTo(got)
			}
			requireSameBits(t, c.region.String(), got, want)
		}
	})

	t.Run("distributed parent block", func(t *testing.T) {
		geom.NewBlockDist(nx, ny, geom.NewRect(0, 0, 4, 3)).Blocks(func(_ geom.Point, blk geom.Rect) {
			want := seed(field.New(blk.Width(), blk.Height()))
			got := want.Clone()
			stamps.build(cells, dt, 1, geom.Point{}, blk)
			for _, cell := range cells {
				oldDepositInto(want, blk, cell, dt)
			}
			stamps.addTo(got)
			requireSameBits(t, blk.String(), got, want)
		})
	})

	t.Run("distributed nest block", func(t *testing.T) {
		region := geom.NewRect(12, 10, 24, 20)
		fnx, fny := region.Width()*NestRatio, region.Height()*NestRatio
		geom.NewBlockDist(fnx, fny, geom.NewRect(2, 1, 5, 4)).Blocks(func(_ geom.Point, blk geom.Rect) {
			want := seed(field.New(blk.Width(), blk.Height()))
			got := want.Clone()
			stamps.build(cells, dt, NestRatio, geom.Point{X: region.X0, Y: region.Y0}, blk)
			for s := 0; s < NestRatio; s++ {
				for _, cell := range cells {
					cell.Peak /= NestRatio
					oldDepositNest(want, blk, cell, dt, region)
				}
				stamps.addTo(got)
			}
			requireSameBits(t, blk.String(), got, want)
		})
	})
}

// TestNestWideStampsMatchPerBlockBuild: a distributed nest's stamps are
// built once over its whole fine grid and each rank adds the part inside
// its block to its window of the nest-wide field (GaussStamp.AddWindow).
// That must give every block exactly the bits of stamps built for the
// block alone, over one rank, a regular grid, ragged blocks and blocks
// exactly HaloWidth wide, with stamps straddling block edges, block corners
// and the nest's own edges.
func TestNestWideStampsMatchPerBlockBuild(t *testing.T) {
	const dt = 120.0
	region := geom.NewRect(12, 10, 24, 20)
	fnx, fny := region.Width()*NestRatio, region.Height()*NestRatio
	origin := geom.Point{X: region.X0, Y: region.Y0}
	cells := append(stampCells(),
		Cell{X: 12.4, Y: 10.3, Radius: 2, Peak: 1.7, Age: 900, Life: 7200}, // across the nest's north-west corner
		Cell{X: 35.8, Y: 29.6, Radius: 1, Peak: 2.2, Age: 900, Life: 7200}, // across its south-east corner
		Cell{X: 24.02, Y: 20.1, Radius: 0.4, Peak: 1, Age: 50, Life: 3600}, // a window of a few fine cells
	)
	var whole sourceStamps
	whole.build(cells, dt, NestRatio, origin, geom.NewRect(0, 0, fnx, fny))
	var block sourceStamps // one buffer across all blocks: reuse must not leak state
	for _, dc := range []struct {
		name  string
		procs geom.Rect
	}{
		{"1x1", geom.NewRect(0, 0, 1, 1)},
		{"4x3", geom.NewRect(0, 0, 4, 3)},
		{"ragged", geom.NewRect(2, 1, 7, 4)}, // 72 columns over 7 ranks
		{"halo-wide", geom.NewRect(0, 0, fnx/HaloWidth, fny/HaloWidth)},
	} {
		got := field.New(fnx, fny)
		for i := range got.Data {
			got.Data[i] = float64(i%11) * 0.25
		}
		seed := got.Clone()
		geom.NewBlockDist(fnx, fny, dc.procs).Blocks(func(_ geom.Point, blk geom.Rect) {
			want := seed.Sub(blk)
			block.build(cells, dt, NestRatio, origin, blk)
			for s := 0; s < NestRatio; s++ {
				block.addTo(want)
				whole.addWindow(got, blk)
			}
			requireSameBits(t, dc.name+" "+blk.String(), got.Sub(blk), want)
		})
	}
}

func stormModel(t *testing.T) *Model {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NX, cfg.NY = 96, 72
	cfg.SpawnRate = 0
	m := mustModel(t, cfg)
	for _, c := range testCells() {
		if err := m.InjectCell(c); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 15; i++ {
		m.Step()
	}
	return m
}

func cloneSplits(in []Split) []Split {
	out := append([]Split(nil), in...)
	for i := range out {
		out[i].QCloud, out[i].OLR = out[i].QCloud.Clone(), out[i].OLR.Clone()
	}
	return out
}

// requireSplitsEqual holds got to want header for header and, read
// through Split.Window, block for block: a window split and a copied one
// compare by the samples of their blocks.
func requireSplitsEqual(t *testing.T, what string, got, want []Split) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d splits, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.Rank != w.Rank || g.Px != w.Px || g.Py != w.Py || g.Bounds != w.Bounds || g.Step != w.Step {
			t.Fatalf("%s: split %d header %+v, want %+v", what, i, *g, *w)
		}
		for _, f := range [][2]*field.Field{{g.QCloud, w.QCloud}, {g.OLR, w.OLR}} {
			gd, gs := g.Window(f[0])
			wd, ws := w.Window(f[1])
			for y := 0; y < w.Bounds.Height(); y++ {
				for x := 0; x < w.Bounds.Width(); x++ {
					if gv, wv := gd[y*gs+x], wd[y*ws+x]; math.Float64bits(gv) != math.Float64bits(wv) {
						t.Fatalf("%s: split %d sample (%d,%d) = %g, want %g (must be bit-identical)",
							what, i, x, y, gv, wv)
					}
				}
			}
		}
	}
}

// TestSplitsAreCallerOwned: what Splits returned must survive later steps
// and SplitWindows calls, and SplitWindows on a used buffer must read
// exactly what a fresh Splits copies — on the same grid and on ones of
// another size — straight out of the model's live fields.
func TestSplitsAreCallerOwned(t *testing.T) {
	m := stormModel(t)
	pg := geom.NewGrid(4, 3)
	first, err := m.Splits(pg)
	if err != nil {
		t.Fatal(err)
	}
	frozen := cloneSplits(first)

	var buf []Split
	for _, grid := range []geom.Grid{pg, pg, geom.NewGrid(6, 4), geom.NewGrid(2, 2), pg} {
		m.Step()
		if buf, err = m.SplitWindows(buf, grid); err != nil {
			t.Fatal(err)
		}
		fresh, err := m.Splits(grid)
		if err != nil {
			t.Fatal(err)
		}
		requireSplitsEqual(t, "windows", buf, fresh)
		for i := range buf {
			if buf[i].QCloud != m.QCloud() || buf[i].OLR != m.OLR() {
				t.Fatalf("window %d does not read the model's live fields", i)
			}
		}
	}
	requireSplitsEqual(t, "first Splits result after later steps", first, frozen)

	if _, err := m.SplitWindows(buf, geom.NewGrid(100, 3)); err == nil {
		t.Fatal("oversized process grid accepted")
	}
}

// TestSplitWindowsWarmBufferZeroAlloc: a step and the next analysis's
// windows, OLR pass included, allocate nothing once the buffer is warm.
func TestSplitWindowsWarmBufferZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	m := stormModel(t)
	pg := geom.NewGrid(18, 15) // more ranks than the domain divides evenly: two block shapes per axis
	buf, err := m.SplitWindows(nil, pg)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		m.Step()
		if buf, err = m.SplitWindows(buf, pg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Step + SplitWindows on a warm buffer allocates %v objects, want 0", allocs)
	}
}

// eagerOLR is the diagnostic recomputed from scratch.
func eagerOLR(m *Model) *field.Field {
	cfg := m.Config()
	out := field.New(cfg.NX, cfg.NY)
	for i, q := range m.QCloud().Data {
		out.Data[i] = math.Max(cfg.OLRClear-cfg.OLRPerQ*q, cfg.OLRMin)
	}
	return out
}

// TestOLROnDemandMatchesEagerRecompute: OLR is refreshed on read, so every
// path that changes the cloud water — a step, a serial or distributed
// nest's feedback, a restore — must leave OLR() and the splits' OLR equal
// to a full recompute.
func TestOLROnDemandMatchesEagerRecompute(t *testing.T) {
	m := stormModel(t)
	check := func(what string, m *Model) {
		t.Helper()
		want := eagerOLR(m)
		requireSameBits(t, what+": OLR()", m.OLR(), want)
		splits, err := m.Splits(geom.NewGrid(4, 3))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range splits {
			requireSameBits(t, what+": split OLR", s.OLR, want.Sub(s.Bounds))
		}
	}
	check("after 15 steps", m)
	if slices.Min(m.OLR().Data) == m.Config().OLRClear {
		t.Fatal("storm left OLR clear everywhere: the test exercises nothing")
	}
	m.Step()
	check("after one more step", m)
	m.Step()
	m.Step() // no read in between: staleness must not be lost
	check("after two unread steps", m)

	region := geom.NewRect(12, 10, 24, 20)
	serial, err := m.SpawnNest(1, region)
	if err != nil {
		t.Fatal(err)
	}
	m.Step()
	serial.Step(m)
	m.OLR() // fresh before the feedback, so only Feedback can make it stale
	serial.Feedback(m)
	check("after serial nest feedback", m)

	pg := geom.NewGrid(8, 6)
	par, err := placeNest(m, 2, region, pg, geom.NewRect(0, 0, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	m.Step()
	if err := StepNests(parallelWorld(t, pg.Size()), m.Config(), m.Cells(), []*Nest{par}); err != nil {
		t.Fatal(err)
	}
	m.OLR()
	par.Feedback(m)
	check("after distributed nest feedback", m)

	m.Step() // restore from a model whose own OLR is stale
	restored, err := RestoreModel(m.Config(), append([]float64(nil), m.QCloud().Data...),
		m.Cells(), m.RNGState(), m.Time(), m.StepCount())
	if err != nil {
		t.Fatal(err)
	}
	check("after RestoreModel", restored)
	restored.Step()
	check("after a step on the restored model", restored)
}
