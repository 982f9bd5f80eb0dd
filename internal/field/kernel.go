package field

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"nestdiff/internal/geom"
)

// This file is the optimized kernel layer: the fused, row-wise
// semi-Lagrangian advection+decay pass and the separable Gaussian deposit
// that the simulation step loops (internal/wrfsim) are built on. Both
// kernels are drop-in replacements for the naive per-point loops they
// replace — AdvectDecay is bit-for-bit identical to per-point Bilinear
// sampling followed by a decay pass, and AddSeparableGaussian matches the
// fused two-dimensional exponential to a few ULPs (see the golden tests in
// kernel_test.go).

// AdvectSpec describes one uniform-flow semi-Lagrangian advection pass.
// The destination sample (x, y) is filled from the source field at the
// departure point of the constant flow (UX, VY), computed and clamped in
// global domain coordinates and then shifted into source coordinates:
//
//	gx := clampF(float64(GX0+x)-UX, 0, float64(GNX-1))
//	gy := clampF(float64(GY0+y)-VY, 0, float64(GNY-1))
//	dst(x, y) = src.Bilinear(gx-float64(GX0-OffX), gy-float64(GY0-OffY)) * Decay
//
// A caller whose source holds the whole domain — a serial field advected
// in place, or a window of a nest-wide field — has GX0 == OffX and
// GY0 == OffY (zero, as a rule) and GNX×GNY equal to the source extents;
// then every sample's formula is the whole-domain one, whichever window of
// dst it is computed in. The origins and offsets also place a dst or src
// that holds only part of the domain.
type AdvectSpec struct {
	// UX, VY is the flow displacement per step in grid cells.
	UX, VY float64
	// GX0, GY0 is the global coordinate of dst's (0, 0) sample.
	GX0, GY0 int
	// GNX, GNY are the global domain extents departure points clamp to.
	GNX, GNY int
	// OffX, OffY locate the global point (GX0, GY0) inside src: src sample
	// (OffX, OffY) holds global sample (GX0, GY0).
	OffX, OffY int
	// Decay is the exponential-decay multiplier folded into the same pass.
	Decay float64
}

// AdvectPlan is the advection kernel for one destination window under one
// spec and one source width. Prepare builds its column table: the window's
// columns where a clamp may engage, and for every other column its
// departure sample index and the two bilinear x weights. The uniform flow
// keeps those constant from row to row and from call to call, so a caller
// that advects the same window again and again — a distributed nest's rank,
// once per substep — prepares once and runs Advect every time. The plan
// also holds one source row's horizontal interpolation (l·wx + r·fx per
// column), which the contiguous path carries from one destination row,
// where it is the bottom row, to the next, where it is the top: scratch
// that lets one goroutine at a time run a plan. The zero value is an empty
// plan; a rebuild reuses its slices.
type AdvectPlan struct {
	sp    AdvectSpec
	win   geom.Rect
	srcNX int
	built bool
	// The fast-path columns are [xLo, xHi) of dst; while contiguous, each
	// reads departure index x+shift.
	xLo, xHi    int
	shift       int
	contiguous  bool
	x0          []int
	fx, wx, top []float64
}

// advectPool backs the one-shot AdvectDecay. A sync.Pool keeps concurrent
// callers — concurrently stepped nests, the parent field beside them —
// allocation-free without sharing a plan's scratch.
var advectPool = sync.Pool{New: func() any { return new(AdvectPlan) }}

// AdvectDecay fills dst with the uniform-flow semi-Lagrangian advection of
// src, folding the decay multiply into the same pass: Prepare over the
// whole of dst and Advect, on a pooled plan. dst and src must not alias.
func AdvectDecay(dst, src *Field, sp AdvectSpec) {
	p := advectPool.Get().(*AdvectPlan)
	p.Prepare(sp, dst.Bounds(), src.NX)
	p.Advect(dst, src)
	advectPool.Put(p)
}

// Prepare makes p the plan of the non-empty window win of a destination
// field, in dst's own coordinates, advected under sp from a source srcNX
// samples wide. It rebuilds the column table only when one of the three
// differs from the plan's.
func (p *AdvectPlan) Prepare(sp AdvectSpec, win geom.Rect, srcNX int) {
	if p.built && p.sp == sp && p.win == win && p.srcNX == srcNX {
		return
	}
	if sp.GNX < 1 || sp.GNY < 1 {
		panic(fmt.Sprintf("field: AdvectDecay invalid global extents %dx%d", sp.GNX, sp.GNY))
	}
	if win.Empty() {
		panic(fmt.Sprintf("field: AdvectDecay empty window %v", win))
	}
	p.sp, p.win, p.srcNX, p.built = sp, win, srcNX, true
	shiftX := float64(sp.GX0 - sp.OffX)
	hiGX := float64(sp.GNX - 1)
	// interiorX reports whether column x is on the fast path: the global
	// clamp is a no-op, and the position is far enough inside src that
	// Bilinear's own clamp and the x0+1 neighbour access are no-ops too.
	interiorX := func(x int) bool {
		g := float64(sp.GX0+x) - sp.UX
		if g < 0 || g > hiGX {
			return false
		}
		px := g - shiftX
		return px >= 0 && px < float64(srcNX-1)
	}
	// Each interior condition is a one-sided threshold on a nondecreasing
	// sequence, so the fast-path columns form one contiguous run [xLo, xHi).
	xLo := win.X0
	for xLo < win.X1 && !interiorX(xLo) {
		xLo++
	}
	xHi := win.X1
	for xHi > xLo && !interiorX(xHi-1) {
		xHi--
	}

	// Column table over [xLo, xHi), its capacity a power of two, so that a
	// plan serving windows of varying widths (a rank share moving between
	// nests) reallocates a handful of times over its life. shift is x0-x of
	// the first column; contiguous stays true while every column shares it.
	n := xHi - xLo
	if cap(p.fx) < n {
		c := 1 << bits.Len(uint(n-1))
		p.x0 = make([]int, c)
		cols := make([]float64, 3*c)
		p.fx, p.wx, p.top = cols[:c:c], cols[c:2*c:2*c], cols[2*c:]
	}
	p.x0, p.fx, p.wx, p.top = p.x0[:n], p.fx[:n], p.wx[:n], p.top[:n]
	shift, contiguous := 0, true
	for i := range p.x0 {
		px := (float64(sp.GX0+xLo+i) - sp.UX) - shiftX
		x0 := int(px) // px >= 0 on the fast path, so truncation == floor
		fx := px - float64(x0)
		p.x0[i], p.fx[i], p.wx[i] = x0, fx, 1-fx
		if i == 0 {
			shift = x0 - xLo
		} else if x0-(xLo+i) != shift {
			contiguous = false
		}
	}
	p.xLo, p.xHi, p.shift, p.contiguous = xLo, xHi, shift, contiguous
}

// Advect fills the plan's window of dst, row by row at dst's row stride,
// with the advection of src, which must be as wide as the plan was
// prepared for and must not alias dst. Every sample is bit-for-bit the
// spec's reference formula, so a field advected window by window, over any
// tiling, holds the bits one whole-field pass gives it. The table holds
// exactly the values the per-point formula computes, the departure-row
// weights and row base slices are computed once per row, and the row loop
// only multiplies and adds what the reference multiplies and adds, in the
// same order.
//
// When the departure index is the column index plus one constant — always
// so for a flow under one cell per step — the row loop reads its source
// rows contiguously with no gather and no bounds check, and interpolates
// each source row horizontally once: the bottom row of one destination row
// is, unclamped, the top row of the next, so its interpolation is kept and
// reused with the same bits. Otherwise it gathers through the index table.
//
// The contiguous path's two row loops (rows.go) run in AVX2 assembly on an
// amd64 CPU that has it, four columns per instruction, and as portable Go
// everywhere else; the border columns and the gather path are Go on every
// host. The assembly does the Go loops' multiplies and adds in the same
// order and never fuses them, so every sample has the bits the Go loops give
// at the default GOAMD64=v1, whichever path runs.
func (p *AdvectPlan) Advect(dst, src *Field) {
	if dst == src {
		panic("field: AdvectDecay destination must not alias the source")
	}
	if !p.built || src.NX != p.srcNX || !dst.Bounds().ContainsRect(p.win) {
		panic(fmt.Sprintf("field: AdvectDecay plan for window %v of a %d-wide source run on %dx%d from %dx%d",
			p.win, p.srcNX, dst.NX, dst.NY, src.NX, src.NY))
	}
	sp := &p.sp
	shiftX := float64(sp.GX0 - sp.OffX)
	shiftY := float64(sp.GY0 - sp.OffY)
	hiGX := float64(sp.GNX - 1)
	hiGY := float64(sp.GNY - 1)
	// srcX is one column's departure x in src coordinates, computed exactly
	// as the reference formula does: global clamp first, then the shift.
	srcX := func(x int) float64 {
		return clampF(float64(sp.GX0+x)-sp.UX, 0, hiGX) - shiftX
	}
	win, xLo, xHi := p.win, p.xLo, p.xHi
	n := xHi - xLo
	x0s, fxs, wxs, tops := p.x0, p.fx, p.wx, p.top
	decay := sp.Decay
	// topRow is the source row whose horizontal interpolation tops holds;
	// -1 before the first contiguous row (the plan's scratch is stale).
	topRow := -1
	for y := win.Y0; y < win.Y1; y++ {
		gy := clampF(float64(sp.GY0+y)-sp.VY, 0, hiGY)
		py := gy - shiftY
		out := dst.Data[y*dst.NX : y*dst.NX+dst.NX]
		// Border columns where a clamp may engage: exact scalar path.
		for x := win.X0; x < xLo; x++ {
			out[x] = src.Bilinear(srcX(x), py) * decay
		}
		for x := xHi; x < win.X1; x++ {
			out[x] = src.Bilinear(srcX(x), py) * decay
		}
		if n == 0 {
			continue
		}
		// Row terms, hoisted: Bilinear's y clamp, floor and fractional
		// weight are identical for every column of this row.
		cy := clampF(py, 0, float64(src.NY-1))
		y0 := int(cy) // cy >= 0, so truncation == floor
		y1 := y0 + 1
		if y1 > src.NY-1 {
			y1 = src.NY - 1
		}
		fy := cy - float64(y0)
		wy0 := 1 - fy
		row0 := src.Data[y0*src.NX : y0*src.NX+src.NX]
		row1 := src.Data[y1*src.NX : y1*src.NX+src.NX]
		out = out[xLo:][:n]
		if !p.contiguous {
			for i, x0 := range x0s {
				top := row0[x0]*wxs[i] + row0[x0+1]*fxs[i]
				bot := row1[x0]*wxs[i] + row1[x0+1]*fxs[i]
				out[i] = (top*wy0 + bot*fy) * decay
			}
			continue
		}
		// Column i reads source samples lo+i and lo+i+1 (rows.go).
		lo := xLo + p.shift
		if topRow != y0 {
			// The previous row's bottom is not this row's top: a first
			// row, or a row whose departure clamps at the top.
			interpRow(tops, row0[lo:lo+n+1], wxs, fxs)
		}
		advectRow(out, tops, row1[lo:lo+n+1], wxs, fxs, wy0, fy, decay)
		topRow = y1
	}
}

// GaussStamp is a separable Gaussian deposit in two parts: Build computes
// the clipped window's per-axis weight tables — O(W+H) exponentials — and
// AddTo accumulates their outer product into a field. A caller depositing
// the same source several times (a nest's substeps) builds once and applies
// many times; a stamp's tables are reused across builds, so a long-lived
// stamp allocates nothing in steady state. The zero value is an empty stamp.
//
// AddTo and AddWindow accumulate each window row, row[i] += amp·wx[i], in
// AVX2 assembly on an amd64 CPU that has it and in Go everywhere else; the
// assembly does the Go loop's multiply and add, never fused, so every
// sample has the bits the Go loop gives at the default GOAMD64=v1.
type GaussStamp struct {
	x0, y0 int       // window origin in the target field's own coordinates
	wx     []float64 // exp(−(x−cx)²·inv) per window column
	wy     []float64 // amp·exp(−(y−cy)²·inv) per window row
}

// Build sets the stamp to amp·exp(−((x−cx)²+(y−cy)²)·inv) over the
// inclusive coordinate range [x0,x1]×[y0,y1], where (x, y) run in the
// caller's (global) coordinates and the sample (x, y) lives at
// (x−offX, y−offY) of the field AddTo is given. An inverted range builds the
// empty stamp.
func (s *GaussStamp) Build(cx, cy, amp, inv float64, x0, y0, x1, y1, offX, offY int) {
	if x1 < x0 || y1 < y0 {
		s.wx, s.wy = s.wx[:0], s.wy[:0]
		return
	}
	w := x1 - x0 + 1
	h := y1 - y0 + 1
	if cap(s.wx) < w {
		s.wx = make([]float64, w)
	}
	if cap(s.wy) < h {
		s.wy = make([]float64, h)
	}
	s.x0, s.y0 = x0-offX, y0-offY
	s.wx, s.wy = s.wx[:w], s.wy[:h]
	for i := range s.wx {
		dx := float64(x0+i) - cx
		s.wx[i] = math.Exp(-(dx * dx) * inv)
	}
	for j := range s.wy {
		dy := float64(y0+j) - cy
		s.wy[j] = amp * math.Exp(-(dy*dy)*inv)
	}
}

// AddTo accumulates the stamp into f, the field it was built for.
func (s *GaussStamp) AddTo(f *Field) { s.AddWindow(f, geom.NewRect(0, 0, f.NX, f.NY)) }

// AddWindow accumulates the part of the stamp inside win, a rect of f, into
// f, the field the stamp was built for. One stamp built over a whole grid
// thus deposits window by window into one grid-wide field — each rank of a
// decomposition into its own block — and every sample gets the bits AddTo
// would give it: a weight depends only on its grid coordinate, and each
// sample takes one product.
func (s *GaussStamp) AddWindow(f *Field, win geom.Rect) {
	x0, x1 := max(s.x0, win.X0), min(s.x0+len(s.wx), win.X1)
	y0, y1 := max(s.y0, win.Y0), min(s.y0+len(s.wy), win.Y1)
	if x1 <= x0 || y1 <= y0 {
		return
	}
	wx := s.wx[x0-s.x0 : x1-s.x0]
	for y, rowAmp := range s.wy[y0-s.y0 : y1-s.y0] {
		base := (y0+y)*f.NX + x0
		addScaled(f.Data[base:base+len(wx)], wx, rowAmp)
	}
}

// stampPool backs the one-shot AddSeparableGaussian. A sync.Pool (rather
// than per-field buffers) keeps concurrent depositors allocation-free
// without sharing mutable state.
var stampPool = sync.Pool{New: func() any { return new(GaussStamp) }}

// AddSeparableGaussian accumulates amp·exp(−((x−cx)²+(y−cy)²)·inv) into f
// over the inclusive coordinate range [x0,x1]×[y0,y1], where (x, y) run in
// the caller's (global) coordinates and the sample (x, y) lives at
// f(x−offX, y−offY). The range, shifted by the offsets, must lie inside f.
// It is GaussStamp's Build and AddTo in one call.
//
// The Gaussian separates into per-axis 1D weight tables — O(W+H)
// exponentials instead of O(W·H) — followed by an outer-product
// accumulate over raw rows. Because the two axes' exponentials round
// independently, results match the fused per-point exponential to a few
// ULPs rather than exactly.
func (f *Field) AddSeparableGaussian(cx, cy, amp, inv float64, x0, y0, x1, y1, offX, offY int) {
	s := stampPool.Get().(*GaussStamp)
	s.Build(cx, cy, amp, inv, x0, y0, x1, y1, offX, offY)
	s.AddTo(f)
	stampPool.Put(s)
}
