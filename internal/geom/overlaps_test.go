package geom

import "testing"

// overlap is one visited intersection.
type overlap struct {
	from, to Point
	cells    Rect
}

// pairwiseOverlaps is the walk BlockOverlaps replaced, kept as the oracle:
// every sender block against every receiver block.
func pairwiseOverlaps(from, to BlockDist) []overlap {
	var out []overlap
	from.Blocks(func(s Point, sblk Rect) {
		if sblk.Empty() {
			return
		}
		to.Blocks(func(r Point, rblk Rect) {
			if inter := sblk.Intersect(rblk); !inter.Empty() {
				out = append(out, overlap{s, r, inter})
			}
		})
	})
	return out
}

// subRect maps four fuzzed bytes to a non-empty sub-rectangle of a 32×32
// process grid.
func subRect(x, y, w, h uint8) Rect {
	x0, y0 := int(x)%32, int(y)%32
	return NewRect(x0, y0, 1+int(w)%(32-x0), 1+int(h)%(32-y0))
}

func FuzzBlockOverlaps(f *testing.F) {
	f.Add(uint16(600), uint16(600), uint8(0), uint8(0), uint8(31), uint8(31), uint8(0), uint8(0), uint8(15), uint8(31)) // 32x32 -> 16x32
	f.Add(uint16(8), uint16(8), uint8(0), uint8(0), uint8(3), uint8(3), uint8(4), uint8(4), uint8(1), uint8(1))         // Fig. 3
	f.Add(uint16(3), uint16(2), uint8(0), uint8(0), uint8(31), uint8(31), uint8(1), uint8(1), uint8(6), uint8(4))       // pw > nx, ph > ny
	f.Add(uint16(1), uint16(1), uint8(5), uint8(5), uint8(9), uint8(9), uint8(2), uint8(2), uint8(20), uint8(20))       // one cell
	f.Add(uint16(97), uint16(211), uint8(3), uint8(4), uint8(6), uint8(4), uint8(3), uint8(4), uint8(6), uint8(4))      // old == new
	f.Add(uint16(400), uint16(400), uint8(1), uint8(2), uint8(12), uint8(6), uint8(5), uint8(0), uint8(6), uint8(10))   // non-divisible
	f.Fuzz(func(t *testing.T, nx, ny uint16, ox, oy, ow, oh, tx, ty, tw, th uint8) {
		from := NewBlockDist(1+int(nx)%400, 1+int(ny)%400, subRect(ox, oy, ow, oh))
		to := NewBlockDist(from.NX, from.NY, subRect(tx, ty, tw, th))
		want := pairwiseOverlaps(from, to)

		ov := from.Overlaps(to)
		var got []overlap
		ov.Each(func(s, r Point, cells Rect) { got = append(got, overlap{s, r, cells}) })

		if len(got) != len(want) || ov.Len() != len(want) {
			t.Fatalf("%v -> %v: %d overlaps, Len %d, pairwise walk finds %d", from, to, len(got), ov.Len(), len(want))
		}
		area, kept := 0, 0
		for i, o := range got {
			if o != want[i] {
				t.Fatalf("%v -> %v: overlap %d = %v, pairwise walk has %v", from, to, i, o, want[i])
			}
			if o.cells.Empty() {
				t.Fatalf("%v -> %v: empty overlap %v", from, to, o)
			}
			area += o.cells.Area()
			if o.from == o.to {
				kept++
			}
		}
		if area != from.NX*from.NY {
			t.Fatalf("%v -> %v: overlaps cover %d cells of %d", from, to, area, from.NX*from.NY)
		}
		if ov.Kept() != kept {
			t.Fatalf("%v -> %v: Kept %d, %d overlaps keep their processor", from, to, ov.Kept(), kept)
		}
		// The product of the axis tables is the same set of intersections.
		xs, ys := ov.Axes()
		product := map[overlap]bool{}
		for _, y := range ys {
			for _, x := range xs {
				product[overlap{
					Point{from.Procs.X0 + x.From, from.Procs.Y0 + y.From},
					Point{to.Procs.X0 + x.To, to.Procs.Y0 + y.To},
					Rect{X0: x.Lo, Y0: y.Lo, X1: x.Hi, Y1: y.Hi},
				}] = true
			}
		}
		for _, o := range got {
			if !product[o] {
				t.Fatalf("%v -> %v: overlap %v is not in the product of the axis tables", from, to, o)
			}
		}
		if len(product) != len(got) {
			t.Fatalf("%v -> %v: the axis tables' product has %d intersections, Each %d", from, to, len(product), len(got))
		}
	})
}

func TestBlockOverlapsRejectsDifferentDomains(t *testing.T) {
	a := NewBlockDist(8, 8, NewRect(0, 0, 2, 2))
	assertPanics(t, "domain mismatch", func() { a.Overlaps(NewBlockDist(8, 9, NewRect(0, 0, 2, 2))) })
}
