// Package field provides the 2D scalar fields the surrogate weather model
// operates on: row-major grids with bilinear sampling, sub-region
// extraction, and the 3× refinement/coarsening used to initialize nested
// domains from their parent and to feed nest results back (§IV: "the
// initial data for the nested domains are interpolated from the parent
// domain", with nest resolution three times the parent's).
package field

import (
	"fmt"
	"math"

	"nestdiff/internal/geom"
)

// Field is a dense row-major 2D grid of float64 samples.
type Field struct {
	NX, NY int
	Data   []float64
}

// New returns a zero-filled nx×ny field. It panics on non-positive
// extents.
func New(nx, ny int) *Field {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("field: invalid extents %dx%d", nx, ny))
	}
	return &Field{NX: nx, NY: ny, Data: make([]float64, nx*ny)}
}

// At returns the sample at (x, y). Callers are expected to stay in bounds;
// the bounds check is the slice access itself.
func (f *Field) At(x, y int) float64 { return f.Data[y*f.NX+x] }

// Set stores v at (x, y).
func (f *Field) Set(x, y int, v float64) { f.Data[y*f.NX+x] = v }

// Add accumulates v at (x, y).
func (f *Field) Add(x, y int, v float64) { f.Data[y*f.NX+x] += v }

// Fill sets every sample to v.
func (f *Field) Fill(v float64) {
	for i := range f.Data {
		f.Data[i] = v
	}
}

// Clone returns a deep copy of f.
func (f *Field) Clone() *Field {
	out := New(f.NX, f.NY)
	copy(out.Data, f.Data)
	return out
}

// Bounds returns the rectangle covering the field.
func (f *Field) Bounds() geom.Rect { return geom.NewRect(0, 0, f.NX, f.NY) }

// Sub returns a copy of the samples inside r, which must lie within the
// field.
func (f *Field) Sub(r geom.Rect) *Field { return f.SubInto(nil, r) }

// SubInto copies the samples inside r, which must lie within the field,
// into out, reallocating only when out is nil or the wrong shape — the
// allocation-free counterpart of Sub for callers that keep a scratch field
// across calls.
func (f *Field) SubInto(out *Field, r geom.Rect) *Field {
	if !f.Bounds().ContainsRect(r) || r.Empty() {
		panic(fmt.Sprintf("field: sub-region %v outside %dx%d", r, f.NX, f.NY))
	}
	if out == nil || out.NX != r.Width() || out.NY != r.Height() {
		out = New(r.Width(), r.Height())
	}
	for y := 0; y < r.Height(); y++ {
		src := (r.Y0+y)*f.NX + r.X0
		copy(out.Data[y*out.NX:(y+1)*out.NX], f.Data[src:src+r.Width()])
	}
	return out
}

// SetSub copies sub into f at the position of r. The extents of r must
// match sub and lie within f.
func (f *Field) SetSub(r geom.Rect, sub *Field) {
	if r.Width() != sub.NX || r.Height() != sub.NY {
		panic(fmt.Sprintf("field: region %v does not match sub-field %dx%d", r, sub.NX, sub.NY))
	}
	if !f.Bounds().ContainsRect(r) {
		panic(fmt.Sprintf("field: region %v outside %dx%d", r, f.NX, f.NY))
	}
	for y := 0; y < sub.NY; y++ {
		dst := (r.Y0+y)*f.NX + r.X0
		copy(f.Data[dst:dst+sub.NX], sub.Data[y*sub.NX:(y+1)*sub.NX])
	}
}

// Bilinear samples the field at fractional coordinates, clamping to the
// border. Sample (i, j) is located at coordinates (i, j).
func (f *Field) Bilinear(x, y float64) float64 {
	x = clampF(x, 0, float64(f.NX-1))
	y = clampF(y, 0, float64(f.NY-1))
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	x1 := min(x0+1, f.NX-1)
	y1 := min(y0+1, f.NY-1)
	fx := x - float64(x0)
	fy := y - float64(y0)
	top := f.At(x0, y0)*(1-fx) + f.At(x1, y0)*fx
	bot := f.At(x0, y1)*(1-fx) + f.At(x1, y1)*fx
	return top*(1-fy) + bot*fy
}

// Sum returns the total of all samples.
func (f *Field) Sum() float64 {
	s := 0.0
	for _, v := range f.Data {
		s += v
	}
	return s
}

// Max returns the largest sample.
func (f *Field) Max() float64 {
	m := math.Inf(-1)
	for _, v := range f.Data {
		if v > m {
			m = v
		}
	}
	return m
}

// Refine returns the region r of f resampled at ratio× resolution by
// bilinear interpolation — the nest initialization path. The result has
// extents ratio·width × ratio·height.
func Refine(f *Field, r geom.Rect, ratio int) *Field {
	if ratio < 1 {
		panic(fmt.Sprintf("field: invalid refinement ratio %d", ratio))
	}
	if !f.Bounds().ContainsRect(r) || r.Empty() {
		panic(fmt.Sprintf("field: refine region %v outside %dx%d", r, f.NX, f.NY))
	}
	out := New(r.Width()*ratio, r.Height()*ratio)
	inv := 1.0 / float64(ratio)
	for y := 0; y < out.NY; y++ {
		sy := float64(r.Y0) + (float64(y)+0.5)*inv - 0.5
		for x := 0; x < out.NX; x++ {
			sx := float64(r.X0) + (float64(x)+0.5)*inv - 0.5
			out.Set(x, y, f.Bilinear(sx, sy))
		}
	}
	return out
}

// Coarsen averages ratio×ratio blocks of fine back onto a coarse field —
// the nest feedback path. The extents of fine must be multiples of ratio.
func Coarsen(fine *Field, ratio int) *Field {
	if ratio < 1 || fine.NX%ratio != 0 || fine.NY%ratio != 0 {
		panic(fmt.Sprintf("field: cannot coarsen %dx%d by %d", fine.NX, fine.NY, ratio))
	}
	out := New(fine.NX/ratio, fine.NY/ratio)
	norm := 1.0 / float64(ratio*ratio)
	for y := 0; y < out.NY; y++ {
		for x := 0; x < out.NX; x++ {
			s := 0.0
			for dy := 0; dy < ratio; dy++ {
				for dx := 0; dx < ratio; dx++ {
					s += fine.At(x*ratio+dx, y*ratio+dy)
				}
			}
			out.Set(x, y, s*norm)
		}
	}
	return out
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
