package redist

import (
	"math/rand"
	"testing"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
	"nestdiff/internal/topology"
)

// TestExchangeExecutesThePlan: over random transfers — ragged cuts, more
// ranks than cells along an axis, kept blocks, identity — the executed
// Alltoallv delivers every sample to its new owner, moves exactly the
// plan's remote payload, and takes exactly the time the network model
// gives the plan's message list.
func TestExchangeExecutesThePlan(t *testing.T) {
	g := geom.NewGrid(8, 8)
	net := testNet(t, g)
	w, err := mpi.NewWorld(g.Size(), mpi.Config{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]mpi.Scratch, g.Size())
	r := rand.New(rand.NewSource(14))
	sub := func() geom.Rect {
		x, y := r.Intn(8), r.Intn(8)
		return geom.NewRect(x, y, 1+r.Intn(8-x), 1+r.Intn(8-y))
	}
	for trial := 0; trial < 200; trial++ {
		tr := Transfer{NestID: trial, NX: 1 + r.Intn(40), NY: 1 + r.Intn(40), Old: sub(), New: sub(), ElemBytes: 8}
		if trial%10 == 0 {
			tr.New = tr.Old
		}
		plan, err := BuildPlan(g, tr)
		if err != nil {
			t.Fatal(err)
		}
		src, dst := field.New(tr.NX, tr.NY), field.New(tr.NX, tr.NY)
		for i := range src.Data {
			src.Data[i] = r.Float64()
		}
		whole := func(f *field.Field) func(int) Window {
			return func(int) Window { return Window{F: f} }
		}
		elapsed, moved, err := Exchange(w, g,
			geom.NewBlockDist(tr.NX, tr.NY, tr.Old), geom.NewBlockDist(tr.NX, tr.NY, tr.New),
			scratch, whole(src), whole(dst))
		if err != nil {
			t.Fatalf("%+v: %v", tr, err)
		}
		for i := range src.Data {
			if dst.Data[i] != src.Data[i] {
				t.Fatalf("%+v: sample %d arrived as %g, sent %g", tr, i, dst.Data[i], src.Data[i])
			}
		}
		if want := plan.TotalBytes - plan.LocalBytes; moved*8 != want {
			t.Fatalf("%+v: moved %d bytes, plan has %d remote", tr, moved*8, want)
		}
		if want := net.AlltoallvTime(plan.Msgs); elapsed != want {
			t.Fatalf("%+v: executed in %g, plan priced at %g", tr, elapsed, want)
		}
	}
}

// FuzzExchange holds the executed exchange to a direct copy for any pair of
// decompositions of a nest on a process grid of up to 8x8: every sample
// arrives at its new owner, and the exchange moves and takes exactly what
// Meter.MeasureChange prices for the one nest: the samples that changed
// owner are its RemoteBytes at 8 bytes each, the modelled time its Time.
func FuzzExchange(f *testing.F) {
	// grid width/height, nest extents, old x/y/w/h, new x/y/w/h, each
	// reduced modulo its range; the shapes of TestExchangeExecutesThePlan.
	f.Add([]byte{7, 7, 7, 7, 0, 0, 3, 3, 4, 4, 1, 1})   // Fig. 3: 4x4 -> a disjoint 2x2
	f.Add([]byte{7, 7, 36, 28, 0, 0, 7, 7, 1, 2, 4, 2}) // ragged cuts on both axes
	f.Add([]byte{7, 7, 2, 1, 0, 0, 7, 7, 2, 3, 5, 3})   // more ranks than cells along both axes
	f.Add([]byte{7, 7, 39, 39, 0, 0, 3, 7, 0, 0, 3, 3}) // kept blocks: the column cuts coincide
	f.Add([]byte{7, 7, 16, 22, 2, 1, 4, 5, 2, 1, 4, 5}) // identity
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})   // one rank, one cell
	f.Add([]byte{2, 6, 30, 11, 1, 0, 1, 6, 0, 2, 2, 4}) // a 3x7 grid
	// One world per grid, reused across inputs.
	type grid struct {
		net     topology.Network
		w       *mpi.World
		scratch []mpi.Scratch
	}
	grids := map[geom.Grid]*grid{}
	f.Cleanup(func() {
		for _, gr := range grids {
			gr.w.Close()
		}
	})
	var mt Meter
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		g := geom.NewGrid(1+next()%8, 1+next()%8)
		nx, ny := 1+next()%40, 1+next()%40
		sub := func() geom.Rect {
			x, y := next()%g.Px, next()%g.Py
			return geom.NewRect(x, y, 1+next()%(g.Px-x), 1+next()%(g.Py-y))
		}
		old, nw := sub(), sub()
		gr := grids[g]
		if gr == nil {
			gr = &grid{net: testNet(t, g), scratch: make([]mpi.Scratch, g.Size())}
			w, err := mpi.NewWorld(g.Size(), mpi.Config{Net: gr.net})
			if err != nil {
				t.Fatal(err)
			}
			gr.w = w
			grids[g] = gr
		}

		src, dst := field.New(nx, ny), field.New(nx, ny)
		for i := range src.Data {
			src.Data[i] = float64(i) + 0.5
		}
		whole := func(f *field.Field) func(int) Window {
			return func(int) Window { return Window{F: f} }
		}
		elapsed, moved, err := Exchange(gr.w, g, geom.NewBlockDist(nx, ny, old), geom.NewBlockDist(nx, ny, nw),
			gr.scratch, whole(src), whole(dst))
		if err != nil {
			t.Fatalf("%dx%d nest, %v -> %v: %v", nx, ny, old, nw, err)
		}
		for i := range src.Data {
			if dst.Data[i] != src.Data[i] {
				t.Fatalf("%dx%d nest, %v -> %v: sample %d arrived as %g, sent %g", nx, ny, old, nw, i, dst.Data[i], src.Data[i])
			}
		}

		m, err := mt.MeasureChange(gr.net, g, map[int]geom.Rect{1: old}, map[int]geom.Rect{1: nw}, map[int][2]int{1: {nx, ny}}, 8)
		if err != nil {
			t.Fatal(err)
		}
		if moved*8 != m.RemoteBytes {
			t.Fatalf("%dx%d nest, %v -> %v: moved %d bytes, priced %d remote", nx, ny, old, nw, moved*8, m.RemoteBytes)
		}
		if elapsed != m.Time {
			t.Fatalf("%dx%d nest, %v -> %v: executed in %g, priced at %g", nx, ny, old, nw, elapsed, m.Time)
		}
	})
}
