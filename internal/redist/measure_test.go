package redist

import (
	"testing"

	"nestdiff/internal/geom"
	"nestdiff/internal/topology"
)

// change is one decoded FuzzMeasureChange input: a process grid, an
// element width and the old and new allocations of a few nests.
type change struct {
	g         geom.Grid
	elemBytes int
	old, nw   map[int]geom.Rect
	sizes     map[int][2]int
}

// decodeChange reads a change from data, a byte at a time (zero once data
// runs out): a grid of 1×1 to 32×32 processors, an element width, then up
// to eight nests. Each nest is retained, deleted (old only) or inserted
// (new only), with a 1..256-point domain per axis, so a sub-grid may have
// more processors than cells along an axis. Sub-rectangles may overlap
// each other: redistribution prices each nest on its own.
func decodeChange(data []byte) change {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	c := change{
		g:     geom.NewGrid(1+next()%32, 1+next()%32),
		old:   map[int]geom.Rect{},
		nw:    map[int]geom.Rect{},
		sizes: map[int][2]int{},
	}
	c.elemBytes = 1 + (next() | next()<<8)
	sub := func() geom.Rect {
		x, y := next()%c.g.Px, next()%c.g.Py
		return geom.NewRect(x, y, 1+next()%(c.g.Px-x), 1+next()%(c.g.Py-y))
	}
	for id := 1; id <= 8 && len(data) > 0; id++ {
		kind := next() % 4
		c.sizes[id] = [2]int{1 + next(), 1 + next()}
		if o, n := sub(), sub(); kind < 2 {
			c.old[id], c.nw[id] = o, n
		} else if kind == 2 {
			c.old[id] = o
		} else {
			c.nw[id] = n
		}
	}
	return c
}

// fuzzNets returns every network a change is priced on: the folded and the
// linear torus, the mesh, the switched fabric and the link-contention
// torus.
func fuzzNets(t *testing.T, g geom.Grid) []topology.Network {
	t.Helper()
	dims := topology.TorusDimsFor(g.Size())
	folded, err := topology.NewTorus3D(g, dims, topology.DefaultTorusParams())
	if err != nil {
		t.Fatal(err)
	}
	linear, err := topology.NewTorus3DLinear(g, dims, topology.DefaultTorusParams())
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := topology.NewMesh3D(g, dims, topology.DefaultTorusParams())
	if err != nil {
		t.Fatal(err)
	}
	sw, err := topology.NewSwitched(g.Size(), 8, topology.DefaultSwitchedParams())
	if err != nil {
		t.Fatal(err)
	}
	dor, err := topology.NewDORTorus(folded)
	if err != nil {
		t.Fatal(err)
	}
	return []topology.Network{folded, linear, mesh, sw, dor}
}

// FuzzMeasureChange holds the streamed measure to the plans it replaced:
// on every network, Meter.MeasureChange equals Measure over
// PlansForChange field by field, its time is the sum of one
// AlltoallvTime per plan, and every plan conserves its payload.
func FuzzMeasureChange(f *testing.F) {
	// grid, elemBytes, then per nest: kind, nx, ny, old x/y/w/h, new x/y/w/h.
	f.Add([]byte{31, 31, 255, 15, 0, 199, 199, 0, 0, 31, 31, 16, 0, 15, 31})              // 32x32 -> 16x32 of one 200x200 nest
	f.Add([]byte{7, 7, 7, 0, 0, 7, 7, 0, 0, 3, 3, 4, 4, 1, 1})                            // Fig. 3
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})                            // 1x1 grid, one cell
	f.Add([]byte{31, 31, 3, 0, 1, 2, 1, 0, 0, 31, 31, 1, 1, 6, 4})                        // more processors than cells
	f.Add([]byte{15, 15, 0, 16, 0, 96, 210, 3, 4, 6, 4, 3, 4, 6, 4, 2, 9, 9, 0, 0, 1, 1}) // a kept nest and a deleted one
	f.Add([]byte{11, 9, 100, 1, 1, 250, 90, 0, 0, 5, 9, 6, 0, 5, 9, 0, 40, 40, 6, 0, 5, 9, 0, 0, 5, 9,
		3, 60, 60, 0, 0, 1, 1, 0, 0, 11, 9}) // two swapped halves and an inserted nest
	// The largest hop-byte sums the decoder reaches: eight 256x256 nests of
	// 65 536-byte points, each moved from the whole 32x32 grid to 17
	// columns at another offset, 256 cells cut raggedly over 17.
	largest := []byte{31, 31, 255, 255}
	for _, x := range []byte{15, 0, 7, 3, 11, 1, 14, 9} {
		largest = append(largest, 0, 255, 255, 0, 0, 31, 31, x, 0, 16, 31)
	}
	f.Add(largest)
	f.Add([]byte{7, 7, 7, 0, 0, 6, 6, 0, 0, 1, 1, 1, 1, 2, 2}) // 2x2 -> 3x3 of 7x7: each sender's run spans two receivers on both axes
	var mt Meter
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeChange(data)
		plans, err := PlansForChange(c.g, c.old, c.nw, c.sizes, c.elemBytes)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range plans {
			moved := 0
			for _, m := range p.Msgs {
				moved += m.Bytes
			}
			if p.LocalBytes+moved != p.TotalBytes {
				t.Fatalf("nest %d: %d local + %d sent != %d total", p.NestID, p.LocalBytes, moved, p.TotalBytes)
			}
		}
		for _, net := range fuzzNets(t, c.g) {
			want := Measure(net, plans)
			got, err := mt.MeasureChange(net, c.g, c.old, c.nw, c.sizes, c.elemBytes)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: streamed %+v\nplans    %+v", net.Name(), got, want)
			}
			// One Alltoallv per nest, summed in nest order.
			var perNest float64
			for _, p := range plans {
				perNest += net.AlltoallvTime(p.Msgs)
			}
			if got.Time != perNest {
				t.Fatalf("%s: time %v, the plans' Alltoallv times sum to %v", net.Name(), got.Time, perNest)
			}
		}
	})
}

func TestMeasureChangeErrorsLikePlansForChange(t *testing.T) {
	g := geom.NewGrid(8, 8)
	net := testNet(t, g)
	old := map[int]geom.Rect{1: geom.NewRect(0, 0, 4, 8), 2: geom.NewRect(4, 0, 4, 8)}
	nw := map[int]geom.Rect{1: geom.NewRect(4, 0, 4, 8), 2: geom.NewRect(0, 0, 9, 8)}
	var mt Meter
	for _, c := range []struct {
		name      string
		sizes     map[int][2]int
		elemBytes int
	}{
		{"missing size", map[int][2]int{2: {50, 50}}, 8},
		{"sub-grid outside the grid", map[int][2]int{1: {50, 50}, 2: {50, 50}}, 8},
		{"no element size", map[int][2]int{1: {50, 50}, 2: {50, 50}}, 0},
	} {
		_, want := PlansForChange(g, old, nw, c.sizes, c.elemBytes)
		_, got := mt.MeasureChange(net, g, old, nw, c.sizes, c.elemBytes)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%s: MeasureChange error %v, PlansForChange error %v", c.name, got, want)
		}
	}
	// A failed call leaves nothing behind for the next one.
	sizes := map[int][2]int{1: {50, 50}, 2: {50, 50}}
	nw[2] = geom.NewRect(0, 0, 4, 8)
	plans, err := PlansForChange(g, old, nw, sizes, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mt.MeasureChange(net, g, old, nw, sizes, 8)
	if err != nil || got != Measure(net, plans) {
		t.Fatalf("after failures: %+v, %v; plans measure %+v", got, err, Measure(net, plans))
	}
}

// TestMeasureChangeZeroAlloc: a warm Meter prices a change without
// allocating, on the per-pair torus and on the per-sender switched fabric.
func TestMeasureChangeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	g := geom.NewGrid(32, 32)
	tor := testNet(t, g)
	sw, err := topology.NewSwitched(g.Size(), 8, topology.DefaultSwitchedParams())
	if err != nil {
		t.Fatal(err)
	}
	old := map[int]geom.Rect{1: geom.NewRect(0, 0, 16, 16), 2: geom.NewRect(16, 0, 16, 32), 3: geom.NewRect(0, 16, 16, 16)}
	nw := map[int]geom.Rect{1: geom.NewRect(8, 8, 16, 16), 2: geom.NewRect(24, 0, 8, 32), 4: geom.NewRect(0, 24, 8, 8)}
	sizes := map[int][2]int{1: {600, 600}, 2: {301, 97}, 3: {50, 50}, 4: {70, 70}}
	for _, net := range []topology.Network{tor, sw} {
		var mt Meter
		measure := func() {
			if _, err := mt.MeasureChange(net, g, old, nw, sizes, 4096); err != nil {
				t.Fatal(err)
			}
		}
		measure()
		if allocs := testing.AllocsPerRun(20, measure); allocs != 0 {
			t.Errorf("%s: a warm MeasureChange allocates %v times, want 0", net.Name(), allocs)
		}
	}
}
