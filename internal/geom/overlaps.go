package geom

import "fmt"

// BlockOverlaps is the set of non-empty intersections between the blocks
// of two block distributions of one domain — the messages of the
// redistribution Alltoallv (§IV, Fig. 3). Block distributions are
// separable: block (i, j) of one overlaps block (k, l) of the other
// exactly when column i overlaps column k and row j overlaps row l, so the
// 2D schedule is the product of two 1D tables (after Sudarsan & Ribbens).
// Building the tables costs one sweep of each axis's cuts; enumerating
// costs one step per intersection, never a test of a pair that does not
// intersect.
type BlockOverlaps struct {
	from, to BlockDist
	xs, ys   []Span
}

// Span is one non-empty overlap along one axis: cells [Lo, Hi) are owned by
// block From of the sending distribution and block To of the receiving one,
// both counted from their sub-grid's origin.
type Span struct {
	From, To int
	Lo, Hi   int
}

// axisSpans merges the cuts that divide n cells into p and into q blocks
// and returns their non-empty overlaps in out's storage (grown to the p+q
// bound when short), ordered by p-block, then q-block. Blocks left empty
// because a side has more blocks than cells fall out as empty overlaps.
func axisSpans(out []Span, n, p, q int) []Span {
	if cap(out) < p+q {
		out = make([]Span, 0, p+q)
	}
	out = out[:0]
	for i, k := 0, 0; i < p && k < q; {
		iEnd, kEnd := (i+1)*n/p, (k+1)*n/q
		if lo, hi := max(i*n/p, k*n/q), min(iEnd, kEnd); lo < hi {
			out = append(out, Span{From: i, To: k, Lo: lo, Hi: hi})
		}
		// Whichever block ends first is done; on a shared cut both are.
		if iEnd <= kEnd {
			i++
		}
		if kEnd <= iEnd {
			k++
		}
	}
	return out
}

// Overlaps returns the intersections of b's blocks (the senders) with the
// blocks of to (the receivers). Both must distribute the same domain.
func (b BlockDist) Overlaps(to BlockDist) BlockOverlaps {
	var o BlockOverlaps
	o.Set(b, to)
	return o
}

// Set makes o the intersections of from's blocks with the blocks of to,
// rebuilding the axis tables in o's storage: a reused BlockOverlaps
// allocates only when a table outgrows it.
func (o *BlockOverlaps) Set(from, to BlockDist) {
	if from.NX != to.NX || from.NY != to.NY {
		panic(fmt.Sprintf("geom: overlaps of a %dx%d domain with a %dx%d domain", from.NX, from.NY, to.NX, to.NY))
	}
	o.from, o.to = from, to
	o.xs = axisSpans(o.xs, from.NX, from.Procs.Width(), to.Procs.Width())
	o.ys = axisSpans(o.ys, from.NY, from.Procs.Height(), to.Procs.Height())
}

// Len returns the number of intersections Each visits.
func (o BlockOverlaps) Len() int { return len(o.xs) * len(o.ys) }

// Axes returns the x and the y table, each ordered by sending block, then
// receiving block. Every pair of an x-span x and a y-span y is one
// intersection: cells {x.Lo, y.Lo, x.Hi, y.Hi}, sent from sub-grid point
// (x.From, y.From) of the sending distribution to (x.To, y.To) of the
// receiving one. The tables are o's storage, valid until the next Set;
// callers read them and must not modify them.
func (o *BlockOverlaps) Axes() (xs, ys []Span) { return o.xs, o.ys }

// Kept returns how many of the intersections have the same processor on
// both sides: data that stays where it is.
func (o BlockOverlaps) Kept() int {
	kept := func(spans []Span, fromOrigin, toOrigin int) int {
		n := 0
		for _, s := range spans {
			if fromOrigin+s.From == toOrigin+s.To {
				n++
			}
		}
		return n
	}
	return kept(o.xs, o.from.Procs.X0, o.to.Procs.X0) * kept(o.ys, o.from.Procs.Y0, o.to.Procs.Y0)
}

// Each calls fn for every intersection with the parent-grid points of the
// sending and receiving processors and the shared domain cells, senders in
// row-major sub-grid order and, for one sender, receivers in row-major
// order: the order of a loop over all sender blocks around a loop over all
// receiver blocks, keeping the pairs that intersect.
func (o BlockOverlaps) Each(fn func(from, to Point, cells Rect)) {
	for y0 := 0; y0 < len(o.ys); {
		y1 := runEnd(o.ys, y0)
		for x0 := 0; x0 < len(o.xs); {
			x1 := runEnd(o.xs, x0)
			sender := Point{o.from.Procs.X0 + o.xs[x0].From, o.from.Procs.Y0 + o.ys[y0].From}
			for _, y := range o.ys[y0:y1] {
				for _, x := range o.xs[x0:x1] {
					fn(sender,
						Point{o.to.Procs.X0 + x.To, o.to.Procs.Y0 + y.To},
						Rect{X0: x.Lo, Y0: y.Lo, X1: x.Hi, Y1: y.Hi})
				}
			}
			x0 = x1
		}
		y0 = y1
	}
}

// runEnd returns the end of the run of spans sharing spans[i]'s sender.
func runEnd(spans []Span, i int) int {
	j := i + 1
	for j < len(spans) && spans[j].From == spans[i].From {
		j++
	}
	return j
}
