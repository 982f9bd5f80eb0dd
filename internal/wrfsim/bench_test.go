package wrfsim

import (
	"testing"

	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
	"nestdiff/internal/topology"
)

func benchModel(b testing.TB, nx, ny int) *Model {
	b.Helper()
	cfg := DefaultConfig()
	cfg.NX, cfg.NY = nx, ny
	cfg.SpawnRate = 0
	m, err := NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.InjectCell(Cell{X: float64(nx) / 2, Y: float64(ny) / 2, Radius: 5, Peak: 2, Life: 1e9}); err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkModelStep(b *testing.B) {
	m := benchModel(b, 180, 105)
	m.Step() // warm the double buffer and deposit scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

func BenchmarkNestStep(b *testing.B) {
	m := benchModel(b, 180, 105)
	for i := 0; i < 10; i++ {
		m.Step()
	}
	n, err := m.SpawnNest(1, geom.NewRect(70, 40, 40, 30))
	if err != nil {
		b.Fatal(err)
	}
	n.Step(m) // warm the double buffer and deposit scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step(m)
	}
}

func BenchmarkSplits(b *testing.B) {
	m := benchModel(b, 180, 105)
	m.Step()
	pg := geom.NewGrid(18, 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Splits(pg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWholeGridNest builds a 96x72 model under a flow of (ux, vy) cells
// per step and a distributed nest over its 32x24 centre (fine 96x72, one
// 16x18 block per rank) on the whole 6x4 process grid, stepped once to warm
// its plans and buffers.
func benchWholeGridNest(b *testing.B, ux, vy float64) (*Model, *Nest, *mpi.World) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.NX, cfg.NY = 96, 72
	cfg.SpawnRate = 0
	cfg.FlowU, cfg.FlowV = ux/cfg.Dt, vy/cfg.Dt
	m, err := NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.InjectCell(Cell{X: 48, Y: 36, Radius: 5, Peak: 2, Life: 1e9}); err != nil {
		b.Fatal(err)
	}
	m.Step()
	pg := geom.NewGrid(6, 4)
	w := parallelWorld(b, pg.Size())
	n, err := placeNest(m, 1, geom.NewRect(32, 24, 32, 24), pg, pg.Bounds())
	if err != nil {
		b.Fatal(err)
	}
	if err := StepNests(w, m.Config(), m.Cells(), []*Nest{n}); err != nil {
		b.Fatal(err)
	}
	return m, n, w
}

// BenchmarkHaloExchange isolates the halo exchange (publication and the
// wait on the upwind neighbours, whose windows the advection then reads in
// place) from the rest of the distributed step, so the exchange's cost is
// measured without the compute kernels. Each iteration is one substep's
// exchange over the whole 6x4 world, in a dispatch of its own.
// msgs/exchange and bytes/exchange count its strips, the cells whose
// transfer the clock prices: an 8-neighbour exchange of 2-cell strips
// there was 136 strips and 22 656 bytes; the stencil reach of an oblique
// sub-cell flow needs 53 one-cell strips (3 of 8 per interior rank), and
// zero flow keeps as many for its weight-zero high-side reads.
func BenchmarkHaloExchange(b *testing.B) {
	for _, tc := range []struct {
		name   string
		ux, vy float64
	}{
		{"upwind", 0.24, 0.06},
		{"zero-flow", 0, 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			_, n, w := benchWholeGridNest(b, tc.ux, tc.vy)
			msgs, cells := 0, 0
			for _, st := range n.local {
				msgs += len(st.halo.sends)
				for _, l := range st.halo.sends {
					cells += l.rect.Area()
				}
			}
			base := n.steps
			exchange := func(r *mpi.Rank) {
				st := n.local[r.ID()]
				st.exchange(r, n.local, 0, base)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base++ // each exchange publishes a substep of its own
				if err := w.Run(exchange); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(msgs), "msgs/exchange")
			b.ReportMetric(float64(cells*8), "bytes/exchange") // one float64 per cell
		})
	}
}

// BenchmarkRedistribute ping-pongs a distributed nest between two processor
// sub-rectangles, measuring the block-intersection Alltoallv of §IV.
func BenchmarkRedistribute(b *testing.B) {
	cfg := DefaultConfig()
	m, _, w := benchWholeGridNest(b, cfg.FlowU*cfg.Dt, cfg.FlowV*cfg.Dt)
	pg := geom.NewGrid(6, 4)
	n, err := placeNest(m, 2, geom.NewRect(20, 16, 40, 30), pg, geom.NewRect(0, 0, 3, 4))
	if err != nil {
		b.Fatal(err)
	}
	a := geom.NewRect(0, 0, 3, 4)
	bRect := geom.NewRect(3, 0, 3, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := bRect
		if i%2 == 1 {
			dst = a
		}
		if _, err := n.Redistribute(w, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// stepNestsLayout builds the distributed nests in the shape the end-to-end
// distributed workload runs them: three nests over disjoint sub-rectangles
// covering a 256-rank torus world, about 40 fine cells per block.
func stepNestsLayout(tb testing.TB) (*Model, *mpi.World, []*Nest) {
	tb.Helper()
	m := benchModel(tb, 96, 72)
	for _, c := range []Cell{
		{X: 14, Y: 12, Radius: 4, Peak: 2, Life: 1e9},
		{X: 52, Y: 11, Radius: 5, Peak: 1.5, Life: 1e9},
		{X: 26, Y: 48, Radius: 6, Peak: 2.5, Life: 1e9},
	} {
		if err := m.InjectCell(c); err != nil {
			tb.Fatal(err)
		}
	}
	m.Step()
	pg := geom.NewGrid(16, 16)
	net, err := topology.NewTorus3D(pg, topology.TorusDimsFor(pg.Size()), topology.DefaultTorusParams())
	if err != nil {
		tb.Fatal(err)
	}
	w, err := mpi.NewWorld(pg.Size(), mpi.Config{Net: net})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(w.Close)
	var nests []*Nest
	for i, nc := range []struct{ region, procs geom.Rect }{
		{geom.NewRect(4, 4, 20, 16), geom.NewRect(0, 0, 8, 9)},    // fine 60x48 over 72 ranks
		{geom.NewRect(40, 4, 24, 14), geom.NewRect(8, 0, 8, 9)},   // fine 72x42 over 72 ranks
		{geom.NewRect(10, 40, 32, 16), geom.NewRect(0, 9, 16, 7)}, // fine 96x48 over 112 ranks
	} {
		n, err := placeNest(m, i+1, nc.region, pg, nc.procs)
		if err != nil {
			tb.Fatal(err)
		}
		nests = append(nests, n)
	}
	return m, w, nests
}

// BenchmarkStepNests measures one parent step of the distributed nests of
// stepNestsLayout, where the dispatch, the stamps and the halo messages
// dominate the compute. msgs/op counts the halo messages of one dispatch.
func BenchmarkStepNests(b *testing.B) {
	m, w, nests := stepNestsLayout(b)
	cfg, cells := m.Config(), m.Cells()
	if err := StepNests(w, cfg, cells, nests); err != nil { // start the workers, build the plans
		b.Fatal(err)
	}
	msgs := 0
	for _, n := range nests {
		for _, st := range n.local {
			if st != nil {
				msgs += NestRatio * len(st.halo.sends)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := StepNests(w, cfg, cells, nests); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(msgs), "msgs/op")
}
