// Package geom provides the integer geometry primitives used throughout
// nestdiff: axis-aligned rectangles on a discrete grid, 2D process grids
// with row-major rank numbering, and exact integer block decompositions of
// a nest domain over a processor sub-grid.
//
// Conventions follow the paper: a processor sub-grid is described by the
// rank of its north-west corner in the row-major parent grid and by its
// width×height extent (Table I).
package geom

import "fmt"

// Point is a discrete 2D coordinate (column x, row y).
type Point struct {
	X, Y int
}

// Manhattan returns the L1 distance between p and q.
func (p Point) Manhattan(q Point) int {
	return abs(p.X-q.X) + abs(p.Y-q.Y)
}

// Rect is a half-open axis-aligned rectangle [X0,X1) × [Y0,Y1) on a
// discrete grid. The zero value is the empty rectangle at the origin.
type Rect struct {
	X0, Y0 int // inclusive north-west corner
	X1, Y1 int // exclusive south-east corner
}

// NewRect returns the rectangle with north-west corner (x, y), width w and
// height h. Negative extents are clamped to zero.
func NewRect(x, y, w, h int) Rect {
	if w < 0 {
		w = 0
	}
	if h < 0 {
		h = 0
	}
	return Rect{X0: x, Y0: y, X1: x + w, Y1: y + h}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() int { return max(0, r.X1-r.X0) }

// Height returns the vertical extent of r.
func (r Rect) Height() int { return max(0, r.Y1-r.Y0) }

// Area returns the number of grid cells covered by r.
func (r Rect) Area() int { return r.Width() * r.Height() }

// Empty reports whether r covers no cells.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Contains reports whether the cell at p lies inside r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X0 && p.X < r.X1 && p.Y >= r.Y0 && p.Y < r.Y1
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return s.X0 >= r.X0 && s.X1 <= r.X1 && s.Y0 >= r.Y0 && s.Y1 <= r.Y1
}

// Intersect returns the intersection of r and s. The result is normalized
// to the canonical empty rectangle when the two do not overlap.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		X0: max(r.X0, s.X0),
		Y0: max(r.Y0, s.Y0),
		X1: min(r.X1, s.X1),
		Y1: min(r.Y1, s.Y1),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Overlaps reports whether r and s share at least one cell.
func (r Rect) Overlaps(s Rect) bool { return !r.Intersect(s).Empty() }

// Union returns the smallest rectangle containing both r and s. Empty
// inputs are ignored.
func (r Rect) Union(s Rect) Rect {
	switch {
	case r.Empty():
		return s
	case s.Empty():
		return r
	}
	return Rect{
		X0: min(r.X0, s.X0),
		Y0: min(r.Y0, s.Y0),
		X1: max(r.X1, s.X1),
		Y1: max(r.Y1, s.Y1),
	}
}

// AspectRatio returns the long-side / short-side ratio of r, or 0 when r is
// empty. A square has aspect ratio 1; larger values mean more skew.
func (r Rect) AspectRatio() float64 {
	w, h := r.Width(), r.Height()
	if w == 0 || h == 0 {
		return 0
	}
	if w > h {
		return float64(w) / float64(h)
	}
	return float64(h) / float64(w)
}

// SplitX cuts r vertically, returning the left part of width w and the
// remaining right part. w is clamped to [0, Width].
func (r Rect) SplitX(w int) (left, right Rect) {
	w = clamp(w, 0, r.Width())
	left = Rect{r.X0, r.Y0, r.X0 + w, r.Y1}
	right = Rect{r.X0 + w, r.Y0, r.X1, r.Y1}
	if left.Empty() {
		left = Rect{}
	}
	if right.Empty() {
		right = Rect{}
	}
	return left, right
}

// SplitY cuts r horizontally, returning the top part of height h and the
// remaining bottom part. h is clamped to [0, Height].
func (r Rect) SplitY(h int) (top, bottom Rect) {
	h = clamp(h, 0, r.Height())
	top = Rect{r.X0, r.Y0, r.X1, r.Y0 + h}
	bottom = Rect{r.X0, r.Y0 + h, r.X1, r.Y1}
	if top.Empty() {
		top = Rect{}
	}
	if bottom.Empty() {
		bottom = Rect{}
	}
	return top, bottom
}

// String renders r as "WxH@(X0,Y0)".
func (r Rect) String() string {
	return fmt.Sprintf("%dx%d@(%d,%d)", r.Width(), r.Height(), r.X0, r.Y0)
}

// Cells calls fn for every cell of r in row-major order.
func (r Rect) Cells(fn func(Point)) {
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			fn(Point{x, y})
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
