package field

import (
	"math"
	"math/rand"
	"testing"

	"nestdiff/internal/geom"
)

// referenceAdvectDecay is the pre-kernel per-point formula AdvectDecay
// must reproduce bit-for-bit: global departure-point clamp, Bilinear
// sample in source coordinates, then the decay multiply.
func referenceAdvectDecay(dst, src *Field, sp AdvectSpec) {
	for y := 0; y < dst.NY; y++ {
		for x := 0; x < dst.NX; x++ {
			gx := clampF(float64(sp.GX0+x)-sp.UX, 0, float64(sp.GNX-1))
			gy := clampF(float64(sp.GY0+y)-sp.VY, 0, float64(sp.GNY-1))
			v := src.Bilinear(gx-float64(sp.GX0-sp.OffX), gy-float64(sp.GY0-sp.OffY))
			dst.Set(x, y, v*sp.Decay)
		}
	}
}

// referenceGaussian is the fused 2D exponential the separable kernel
// replaces.
func referenceGaussian(f *Field, cx, cy, amp, inv float64, x0, y0, x1, y1, offX, offY int) {
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			dx := float64(x) - cx
			dy := float64(y) - cy
			f.Add(x-offX, y-offY, amp*math.Exp(-(dx*dx+dy*dy)*inv))
		}
	}
}

func randomField(rng *rand.Rand, nx, ny int) *Field {
	f := New(nx, ny)
	for i := range f.Data {
		f.Data[i] = rng.Float64() * 10
	}
	return f
}

func TestAdvectDecayMatchesReferenceSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	flows := [][2]float64{
		{0, 0}, {0.37, 0.21}, {-0.8, 0.55}, {1.9, -2.3}, {0.999, 0.001},
		{250, 250}, {-250, -250}, // displacement far past the domain: pure clamp
	}
	for _, fl := range flows {
		src := randomField(rng, 47, 31)
		sp := AdvectSpec{UX: fl[0], VY: fl[1], GNX: src.NX, GNY: src.NY, Decay: 0.93}
		want := New(src.NX, src.NY)
		referenceAdvectDecay(want, src, sp)
		got := New(src.NX, src.NY)
		AdvectDecay(got, src, sp)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("flow %v: sample %d = %g, want %g (must be bit-identical)",
					fl, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestAdvectDecayMatchesReferenceHaloBlocks(t *testing.T) {
	// The block-distributed shape: dst is an interior block of a larger
	// global domain, src is the halo-extended block, and departure points
	// clamp to the global extents.
	rng := rand.New(rand.NewSource(11))
	const gnx, gny, halo = 60, 44, 2
	blocks := []struct{ x0, y0, w, h int }{
		{0, 0, 20, 22},   // NW corner block
		{40, 22, 20, 22}, // SE corner block
		{20, 11, 20, 22}, // interior block
		{0, 22, 60, 22},  // full-width strip
		{58, 0, 2, 44},   // halo-thin edge block
	}
	for _, blk := range blocks {
		for _, fl := range [][2]float64{{0.4, 0.7}, {-1.3, 0.2}, {2.5, -1.9}} {
			src := randomField(rng, blk.w+2*halo, blk.h+2*halo)
			sp := AdvectSpec{
				UX: fl[0], VY: fl[1],
				GX0: blk.x0, GY0: blk.y0,
				GNX: gnx, GNY: gny,
				OffX: halo, OffY: halo,
				Decay: 0.96,
			}
			want := New(blk.w, blk.h)
			referenceAdvectDecay(want, src, sp)
			got := New(blk.w, blk.h)
			AdvectDecay(got, src, sp)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("block %+v flow %v: sample %d = %g, want %g (must be bit-identical)",
						blk, fl, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestAdvectDecayRandomizedExactEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		gnx := 4 + rng.Intn(40)
		gny := 4 + rng.Intn(40)
		w := 1 + rng.Intn(gnx)
		h := 1 + rng.Intn(gny)
		x0 := rng.Intn(gnx - w + 1)
		y0 := rng.Intn(gny - h + 1)
		off := rng.Intn(3)
		src := randomField(rng, w+2*off, h+2*off)
		sp := AdvectSpec{
			UX: (rng.Float64() - 0.5) * 8, VY: (rng.Float64() - 0.5) * 8,
			GX0: x0, GY0: y0, GNX: gnx, GNY: gny,
			OffX: off, OffY: off,
			Decay: 0.5 + rng.Float64()/2,
		}
		want := New(w, h)
		referenceAdvectDecay(want, src, sp)
		got := New(w, h)
		AdvectDecay(got, src, sp)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("trial %d (%+v): sample %d = %g, want %g",
					trial, sp, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// portableRows runs fn with the assembly row loops switched off, so it
// runs the portable Go loops of rows.go on any host.
func portableRows(fn func()) {
	saved := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = saved }()
	fn()
}

// checkAdvectMatchesReference runs the kernel with the row loops this host
// selects (the AVX2 assembly where the CPU has it), the kernel with the
// portable loops, and the per-point reference on one spec, and requires
// every sample of the three to agree bit-for-bit.
func checkAdvectMatchesReference(t *testing.T, src *Field, w, h int, sp AdvectSpec) {
	t.Helper()
	want := New(w, h)
	referenceAdvectDecay(want, src, sp)
	got := New(w, h)
	AdvectDecay(got, src, sp)
	portable := New(w, h)
	portableRows(func() { AdvectDecay(portable, src, sp) })
	for i := range want.Data {
		if math.Float64bits(portable.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%dx%d %+v: portable sample (%d,%d) = %g, want %g (must be bit-identical)",
				w, h, sp, i%w, i/w, portable.Data[i], want.Data[i])
		}
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%dx%d %+v (vector rows %v): sample (%d,%d) = %g, want %g (must be bit-identical)",
				w, h, sp, useAVX2, i%w, i/w, got.Data[i], want.Data[i])
		}
	}
}

// TestAdvectDecayWideFieldCrossesBinades pins the column table on a field
// wide enough that float64(x)-UX loses the flow's low bits as x grows: with
// a flow far below one ulp of the larger columns, the departure index is
// x-1 on the left of the field and x on the right, so no single shift
// describes the row and the kernel must gather.
func TestAdvectDecayWideFieldCrossesBinades(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const nx, ny = 4500, 3
	src := randomField(rng, nx, ny)
	for _, ux := range []float64{1e-13, 3e-13, -1e-13, 1 - 1e-13, 0.24} {
		checkAdvectMatchesReference(t, src, nx, ny,
			AdvectSpec{UX: ux, VY: 0.06, GNX: nx, GNY: ny, Decay: 0.978})
	}
}

// TestAdvectDecayRowReuseMatchesReference pins the contiguous path's
// carried row: the horizontal interpolation of one destination row's
// bottom source row is reused as the next row's top only where the two are
// the same source row. Every case changes the carried row a different way
// — departure rows clamped at the top (consecutive rows share y0), y1 ==
// y0 at the bottom, a flow of more than one row either way, one- and
// two-row fields, halo-block windows — and the gather path, which carries
// nothing, stays exact beside it.
func TestAdvectDecayRowReuseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	const halo = 2
	for _, c := range []struct {
		name         string
		gnx, gny     int
		x0, y0, w, h int
		off          int
		ux, vy       float64
	}{
		{"top clamp, shared y0", 47, 31, 0, 0, 47, 31, 0, 0.24, 2.5},
		{"top clamp, integral flow", 47, 31, 0, 0, 47, 31, 0, 0.24, 3},
		{"bottom y1 == y0", 47, 31, 0, 0, 47, 31, 0, 0.24, -2.5},
		{"bottom, sub-row flow", 47, 31, 0, 0, 47, 31, 0, 0.24, -0.4},
		{"flow over one row", 47, 31, 0, 0, 47, 31, 0, 0.6, 1.7},
		{"negative flow over one row", 47, 31, 0, 0, 47, 31, 0, -0.6, -1.7},
		{"far past the domain", 47, 31, 0, 0, 47, 31, 0, 0.3, 250},
		{"one row", 47, 1, 0, 0, 47, 1, 0, 0.24, 0.06},
		{"two rows", 47, 2, 0, 0, 47, 2, 0, 0.24, 0.06},
		{"two rows, bottom clamp", 47, 2, 0, 0, 47, 2, 0, 0.24, -0.7},
		{"halo block, north border", 60, 44, 20, 0, 25, 21, halo, 0.4, 1.3},
		{"halo block, south border", 60, 44, 20, 23, 25, 21, halo, 0.4, -1.3},
		{"halo block, interior", 60, 44, 20, 11, 20, 22, halo, -0.4, 0.7},
		{"halo block, one row", 60, 44, 20, 11, 20, 1, halo, 0.4, 0.7},
		// x − UX rounds to x on some columns and not on others: the gather
		// path, beside rows clamped at both ends.
		{"gather, top clamp", 47, 31, 0, 0, 47, 31, 0, 1e-16, 2.5},
		{"gather, bottom clamp", 47, 31, 0, 0, 47, 31, 0, 1e-16, -2.5},
	} {
		t.Run(c.name, func(t *testing.T) {
			sp := AdvectSpec{
				UX: c.ux, VY: c.vy, GX0: c.x0, GY0: c.y0, GNX: c.gnx, GNY: c.gny,
				OffX: c.off, OffY: c.off, Decay: 0.96,
			}
			// Two sources of one shape in a row: the second call must not
			// start from the first one's carried row in the pooled scratch.
			for range 2 {
				checkAdvectMatchesReference(t, randomField(rng, c.w+2*c.off, c.h+2*c.off), c.w, c.h, sp)
			}
		})
	}
}

// FuzzAdvectDecay holds the kernel to the per-point reference, bit for
// bit, over arbitrary flows, block placements and halo widths, and, on the
// same flow and domain, window by window over a tiling of the whole domain
// against the whole-field pass and the reference (checkWindowsMatchWhole).
func FuzzAdvectDecay(f *testing.F) {
	ulp := func(v float64, n int) float64 {
		for ; n > 0; n-- {
			v = math.Nextafter(v, math.Inf(1))
		}
		for ; n < 0; n++ {
			v = math.Nextafter(v, math.Inf(-1))
		}
		return v
	}
	// ux, vy, global extents, block origin and extents, halo, data seed.
	// Sub-cell flow, whole domain: the contiguous path the models take.
	f.Add(0.24, 0.06, 47, 31, 0, 0, 47, 31, 0, int64(1))
	// |flow| > 1 cell and negative flow.
	f.Add(2.5, -1.9, 47, 31, 0, 0, 47, 31, 0, int64(2))
	f.Add(-3.75, 4.2, 60, 44, 20, 11, 20, 22, 2, int64(3))
	f.Add(250.0, -250.0, 47, 31, 0, 0, 47, 31, 0, int64(4))
	// Flows within one ulp of an integer, either side, and of zero.
	f.Add(ulp(1, 1), ulp(2, -1), 47, 31, 0, 0, 47, 31, 0, int64(5))
	f.Add(ulp(1, -1), ulp(-1, 1), 60, 44, 20, 11, 20, 22, 2, int64(6))
	f.Add(ulp(0, 1), ulp(0, -1), 47, 31, 0, 0, 47, 31, 0, int64(7))
	f.Add(1.0, -2.0, 47, 31, 0, 0, 47, 31, 0, int64(8))
	// One-column and one-row fields.
	f.Add(0.4, 0.7, 1, 31, 0, 0, 1, 31, 0, int64(9))
	f.Add(0.4, 0.7, 47, 1, 0, 0, 47, 1, 0, int64(10))
	f.Add(-0.4, 0.7, 60, 44, 59, 0, 1, 44, 2, int64(11))
	// Halo blocks touching each of the four global borders.
	f.Add(0.4, 0.7, 60, 44, 0, 11, 6, 5, 2, int64(12))    // west
	f.Add(-1.3, 0.2, 60, 44, 54, 11, 6, 5, 2, int64(13))  // east
	f.Add(0.4, -0.7, 60, 44, 20, 0, 25, 21, 2, int64(14)) // north
	f.Add(2.5, 1.9, 60, 44, 20, 23, 25, 21, 2, int64(15)) // south
	// The contiguous path's carried row: departure rows clamped at the top
	// (shared y0), y1 == y0 at the bottom, more than one row either way,
	// two-row fields, halo blocks on the north and south borders, and the
	// gather path beside both clamps.
	f.Add(0.24, 2.5, 47, 31, 0, 0, 47, 31, 0, int64(16))
	f.Add(0.24, -2.5, 47, 31, 0, 0, 47, 31, 0, int64(17))
	f.Add(-0.6, -1.7, 47, 31, 0, 0, 47, 31, 0, int64(18))
	f.Add(0.24, 0.06, 47, 2, 0, 0, 47, 2, 0, int64(19))
	f.Add(0.24, -0.7, 47, 2, 0, 0, 47, 2, 0, int64(20))
	f.Add(0.4, 1.3, 60, 44, 20, 0, 25, 21, 2, int64(21))
	f.Add(0.4, -1.3, 60, 44, 20, 23, 25, 21, 2, int64(22))
	f.Add(1e-16, 2.5, 47, 31, 0, 0, 47, 31, 0, int64(23))
	f.Add(1e-16, -2.5, 47, 31, 0, 0, 47, 31, 0, int64(24))
	// Whole fields n+1 columns wide under a sub-cell flow: a fast path of
	// n = 1–8 columns, so the vector row loops see rows shorter than one
	// vector, every tail length, 0–3, after one vector, and two whole ones.
	for n := 1; n <= 8; n++ {
		f.Add(0.24, 0.06, n, 30, 0, 0, n, 30, 0, int64(24+n))
	}
	f.Fuzz(func(t *testing.T, ux, vy float64, gnx, gny, x0, y0, w, h, halo int, seed int64) {
		if math.IsNaN(ux) || math.IsNaN(vy) {
			t.Skip("the reference formula indexes out of range on a NaN flow")
		}
		norm := func(v, n int) int { return ((v % n) + n) % n }
		gnx, gny = 1+norm(gnx, 96), 1+norm(gny, 64)
		w, h = 1+norm(w, gnx), 1+norm(h, gny)
		x0, y0 = norm(x0, gnx-w+1), norm(y0, gny-h+1)
		halo = norm(halo, 4)
		rng := rand.New(rand.NewSource(seed))
		src := randomField(rng, w+2*halo, h+2*halo)
		checkAdvectMatchesReference(t, src, w, h, AdvectSpec{
			UX: ux, VY: vy, GX0: x0, GY0: y0, GNX: gnx, GNY: gny,
			OffX: halo, OffY: halo, Decay: 0.96,
		})
		// Windowed: the whole domain cut into a seed-drawn tiling.
		whole := randomField(rng, gnx, gny)
		checkWindowsMatchWhole(t, rng, whole, AdvectSpec{UX: ux, VY: vy, GNX: gnx, GNY: gny, Decay: 0.96})
	})
}

// cuts splits [0, n) into consecutive spans 1–9 cells long, the nine
// lengths in a seed-drawn order and then again, so a domain at least 45
// cells long holds a span of every length. It returns the span bounds.
func cuts(rng *rand.Rand, n int) []int {
	order := rng.Perm(9)
	out := []int{0}
	for i := 0; out[len(out)-1] < n; i++ {
		out = append(out, min(n, out[len(out)-1]+1+order[i%9]))
	}
	return out
}

// checkWindowsMatchWhole cuts src's domain into a tiling of windows 1–9
// cells on a side (every vector tail length, and rows shorter than one
// vector), advects each window into one domain-wide dst with a plan of its
// own, prepared once and run twice, with this host's row loops and with
// the portable ones, and requires every sample to have the bits of the
// whole-field AdvectDecay and of the per-point reference. sp must describe
// a source holding the whole domain.
func checkWindowsMatchWhole(t *testing.T, rng *rand.Rand, src *Field, sp AdvectSpec) {
	t.Helper()
	want := New(src.NX, src.NY)
	referenceAdvectDecay(want, src, sp)
	whole := New(src.NX, src.NY)
	AdvectDecay(whole, src, sp)
	xs, ys := cuts(rng, src.NX), cuts(rng, src.NY)
	plans := make([]AdvectPlan, (len(xs)-1)*(len(ys)-1))
	for _, portable := range []bool{false, true} {
		got := New(src.NX, src.NY)
		got.Fill(math.NaN()) // a sample no window writes fails the comparison
		tiled := func() {
			for pass := 0; pass < 2; pass++ {
				for j := 1; j < len(ys); j++ {
					for i := 1; i < len(xs); i++ {
						p := &plans[(j-1)*(len(xs)-1)+i-1]
						p.Prepare(sp, geom.Rect{X0: xs[i-1], Y0: ys[j-1], X1: xs[i], Y1: ys[j]}, src.NX)
						p.Advect(got, src)
					}
				}
			}
		}
		if portable {
			portableRows(tiled)
		} else {
			tiled()
		}
		for k := range want.Data {
			if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) ||
				math.Float64bits(whole.Data[k]) != math.Float64bits(want.Data[k]) {
				t.Fatalf("%dx%d %+v, columns %v, rows %v (portable rows %v): sample (%d,%d) = %g windowed, %g whole, want %g",
					src.NX, src.NY, sp, xs, ys, portable, k%src.NX, k/src.NX, got.Data[k], whole.Data[k], want.Data[k])
			}
		}
	}
}

// TestAddWindowVectorMatchesPortable holds GaussStamp.AddWindow, with the
// row loops this host selects and with the portable ones, to the per-sample
// accumulate f(x, y) += wy·wx bit for bit, on windows 0–9 columns wide (every
// vector tail, and rows shorter than one vector) at places that clip the
// stamp on either side, and leaves every sample outside the window alone.
func TestAddWindowVectorMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	var s GaussStamp
	s.Build(12.3, 8.6, 1.7, 0.02, 3, 2, 19, 14, 0, 0)
	for width := 0; width <= 9; width++ {
		for _, off := range [][2]int{{0, 0}, {3, 5}, {14, 9}, {20, 15}, {1, 12}} {
			base := randomField(rng, 24, 18)
			win := geom.NewRect(off[0], off[1], width, 3).Intersect(base.Bounds())
			want := base.Clone()
			for y := max(win.Y0, s.y0); y < min(win.Y1, s.y0+len(s.wy)); y++ {
				for x := max(win.X0, s.x0); x < min(win.X1, s.x0+len(s.wx)); x++ {
					want.Add(x, y, s.wy[y-s.y0]*s.wx[x-s.x0])
				}
			}
			got, portable := base.Clone(), base.Clone()
			s.AddWindow(got, win)
			portableRows(func() { s.AddWindow(portable, win) })
			for i := range want.Data {
				if math.Float64bits(portable.Data[i]) != math.Float64bits(want.Data[i]) ||
					math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("window %v: sample %d = %g (portable %g), want %g (must be bit-identical)",
						win, i, got.Data[i], portable.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestAddWindowTilingMatchesAddTo: a stamp deposited window by window over
// a tiling of the field it was built for — one window, a regular grid,
// ragged windows, windows 1–9 wide and tall — gives every sample the bits
// one AddTo gives it, for stamps inside the field, across each of its
// edges and corners, and covering it whole.
func TestAddWindowTilingMatchesAddTo(t *testing.T) {
	const nx, ny = 47, 31
	rng := rand.New(rand.NewSource(83))
	regular := func(k, n int) []int {
		out := make([]int, k+1)
		for i := range out {
			out[i] = i * n / k
		}
		return out
	}
	for _, st := range []struct {
		name           string
		cx, cy, rad    float64
		x0, y0, x1, y1 int
	}{
		{"inside", 20.4, 13.7, 3, 11, 4, 30, 23},
		{"north-west corner", 1.2, 0.6, 4, 0, 0, 13, 12},
		{"south-east corner", 45.1, 29.9, 3, 36, 20, 46, 30},
		{"east edge", 46.5, 15, 2, 40, 9, 46, 21},
		{"whole field", 23, 15, 20, 0, 0, nx - 1, ny - 1},
		{"one sample", 9, 9, 0.3, 9, 9, 9, 9},
	} {
		var s GaussStamp
		s.Build(st.cx, st.cy, 1.3, 1/(2*st.rad*st.rad), st.x0, st.y0, st.x1, st.y1, 0, 0)
		for _, tl := range []struct {
			name   string
			xs, ys []int
		}{
			{"1x1", []int{0, nx}, []int{0, ny}},
			{"4x3", regular(4, nx), regular(3, ny)},
			{"ragged 7x4", regular(7, nx), regular(4, ny)},
			{"1-9 wide", cuts(rng, nx), cuts(rng, ny)},
		} {
			base := randomField(rng, nx, ny)
			want, got := base.Clone(), base.Clone()
			s.AddTo(want)
			for j := 1; j < len(tl.ys); j++ {
				for i := 1; i < len(tl.xs); i++ {
					s.AddWindow(got, geom.Rect{X0: tl.xs[i-1], Y0: tl.ys[j-1], X1: tl.xs[i], Y1: tl.ys[j]})
				}
			}
			for k := range want.Data {
				if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
					t.Fatalf("stamp %s, tiling %s: sample (%d,%d) = %g, want %g (must be bit-identical)",
						st.name, tl.name, k%nx, k/nx, got.Data[k], want.Data[k])
				}
			}
		}
	}
}

func TestAdvectDecayPanics(t *testing.T) {
	f := New(4, 4)
	mustPanic(t, "aliased dst", func() {
		AdvectDecay(f, f, AdvectSpec{GNX: 4, GNY: 4, Decay: 1})
	})
	mustPanic(t, "bad extents", func() {
		AdvectDecay(New(4, 4), f, AdvectSpec{GNX: 0, GNY: 4, Decay: 1})
	})
	sp := AdvectSpec{GNX: 4, GNY: 4, Decay: 1}
	var p AdvectPlan
	mustPanic(t, "unprepared plan", func() { p.Advect(New(4, 4), f) })
	mustPanic(t, "empty window", func() { p.Prepare(sp, geom.Rect{}, 4) })
	p.Prepare(sp, geom.NewRect(2, 2, 2, 2), 4)
	mustPanic(t, "window outside dst", func() { p.Advect(New(3, 3), f) })
	mustPanic(t, "source of another width", func() { p.Advect(New(4, 4), New(5, 4)) })
}

func TestSeparableGaussianMatchesFusedWithin1e12(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		nx := 5 + rng.Intn(50)
		ny := 5 + rng.Intn(50)
		cx := rng.Float64() * float64(nx)
		cy := rng.Float64() * float64(ny)
		rad := 0.5 + rng.Float64()*6
		amp := rng.Float64() * 3
		inv := 1 / (2 * rad * rad)
		x0, x1 := 0, nx-1
		y0, y1 := 0, ny-1
		if trial%2 == 1 { // restricted window, offset accumulate
			x0, x1 = nx/4, nx-1-nx/4
			y0, y1 = ny/4, ny-1-ny/4
		}
		want := randomField(rng, nx, ny)
		got := want.Clone()
		referenceGaussian(want, cx, cy, amp, inv, x0, y0, x1, y1, 0, 0)
		got.AddSeparableGaussian(cx, cy, amp, inv, x0, y0, x1, y1, 0, 0)
		for i := range want.Data {
			if d := math.Abs(got.Data[i] - want.Data[i]); d > 1e-12 {
				t.Fatalf("trial %d: sample %d differs by %g (> 1e-12)", trial, i, d)
			}
		}
	}
}

func TestSeparableGaussianEmptyWindowIsNoop(t *testing.T) {
	f := New(4, 4)
	f.Fill(1)
	f.AddSeparableGaussian(2, 2, 1, 1, 3, 3, 2, 2, 0, 0)
	for i, v := range f.Data {
		if v != 1 {
			t.Fatalf("sample %d mutated to %g by empty window", i, v)
		}
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

// BenchmarkAdvect compares the fused kernel against the per-point
// reference it replaced, on the default parent domain extents, and runs a
// prepared plan over a 25×21 window of a 150×126 field (a distributed nest
// rank's share of its nest-wide field), where per-call set-up would be a
// visible part of the cost.
func BenchmarkAdvect(b *testing.B) {
	fill := func(f *Field) *Field {
		for i := range f.Data {
			f.Data[i] = float64(i % 89)
		}
		return f
	}
	dst, src := New(180, 105), fill(New(180, 105))
	sp := AdvectSpec{UX: 0.45, VY: 0.3, GNX: 180, GNY: 105, Decay: 0.95}
	for _, k := range []struct {
		name string
		fn   func(dst, src *Field, sp AdvectSpec)
	}{{"fused", AdvectDecay}, {"reference", referenceAdvectDecay}} {
		b.Run("180x105/"+k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.fn(dst, src, sp)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst.Data)), "ns/cell")
		})
	}
	b.Run("window25x21/plan", func(b *testing.B) {
		dst, src := New(150, 126), fill(New(150, 126))
		win := geom.NewRect(25, 42, 25, 21)
		var p AdvectPlan
		p.Prepare(AdvectSpec{UX: 0.24, VY: 0.06, GNX: 150, GNY: 126, Decay: 0.95}, win, src.NX)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Advect(dst, src)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*win.Area()), "ns/cell")
	})
}

// BenchmarkDeposit compares the separable Gaussian deposit against the
// fused 2D exponential it replaced, at a typical cell footprint.
func BenchmarkDeposit(b *testing.B) {
	f := New(180, 105)
	var (
		cx, cy = 90.3, 52.7
		rad    = 9.0
		amp    = 0.8
	)
	inv := 1 / (2 * rad * rad)
	x0, x1 := int(cx-3*rad), int(cx+3*rad)+1
	y0, y1 := int(cy-3*rad), int(cy+3*rad)+1
	b.Run("separable", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.AddSeparableGaussian(cx, cy, amp, inv, x0, y0, x1, y1, 0, 0)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceGaussian(f, cx, cy, amp, inv, x0, y0, x1, y1, 0, 0)
		}
	})
}
