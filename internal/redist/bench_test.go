package redist

import (
	"fmt"
	"testing"

	"nestdiff/internal/geom"
	"nestdiff/internal/topology"
)

func benchNet(b *testing.B, g geom.Grid) topology.Network {
	b.Helper()
	net, err := topology.NewTorus3D(g, topology.TorusDimsFor(g.Size()), topology.DefaultTorusParams())
	if err != nil {
		b.Fatal(err)
	}
	return net
}

func BenchmarkBuildPlan(b *testing.B) {
	// Three shifted square moves, whose old and new cuts coincide, then
	// 32x32 -> 16x32: 600 cells divide raggedly over 32 ranks (18 or 19
	// each) and over 16 (37 or 38), so every new column spans two old ones.
	for _, c := range []struct{ old, new geom.Rect }{
		{geom.NewRect(0, 0, 8, 8), geom.NewRect(4, 4, 8, 8)},
		{geom.NewRect(0, 0, 16, 16), geom.NewRect(8, 8, 16, 16)},
		{geom.NewRect(0, 0, 32, 32), geom.NewRect(16, 16, 32, 32)},
		{geom.NewRect(0, 0, 32, 32), geom.NewRect(16, 16, 16, 32)},
	} {
		name := fmt.Sprintf("subgrid=%dx%d", c.old.Width(), c.old.Height())
		if c.new.Width() != c.old.Width() {
			name += fmt.Sprintf("->%dx%d", c.new.Width(), c.new.Height())
		}
		b.Run(name, func(b *testing.B) {
			g := geom.NewGrid(64, 64)
			tr := Transfer{NestID: 1, NX: 600, NY: 600, Old: c.old, New: c.new, ElemBytes: 4096}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildPlan(g, tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMeasure(b *testing.B) {
	g := geom.NewGrid(32, 32)
	net := benchNet(b, g)
	tr := Transfer{
		NestID: 1, NX: 600, NY: 600,
		Old:       geom.NewRect(0, 0, 16, 16),
		New:       geom.NewRect(8, 8, 16, 16),
		ElemBytes: 4096,
	}
	plan, err := BuildPlan(g, tr)
	if err != nil {
		b.Fatal(err)
	}
	plans := []Plan{plan}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Measure(net, plans)
	}
}

// BenchmarkMeasureChange prices BenchmarkMeasure's transfer straight from
// the block overlaps, on a warm Meter, and then 32x32 -> 16x32 of the same
// nest, where 600 cells divide raggedly over 32 and over 16 ranks: every
// run of one sender's messages is one receiver long in the first case and
// one or two in the second.
func BenchmarkMeasureChange(b *testing.B) {
	g := geom.NewGrid(32, 32)
	net := benchNet(b, g)
	for _, c := range []struct{ old, new geom.Rect }{
		{geom.NewRect(0, 0, 16, 16), geom.NewRect(8, 8, 16, 16)},
		{geom.NewRect(0, 0, 32, 32), geom.NewRect(16, 0, 16, 32)},
	} {
		name := fmt.Sprintf("subgrid=%dx%d", c.old.Width(), c.old.Height())
		if c.new.Width() != c.old.Width() {
			name += fmt.Sprintf("->%dx%d", c.new.Width(), c.new.Height())
		}
		b.Run(name, func(b *testing.B) {
			old := map[int]geom.Rect{1: c.old}
			nw := map[int]geom.Rect{1: c.new}
			sizes := map[int][2]int{1: {600, 600}}
			var mt Meter
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mt.MeasureChange(net, g, old, nw, sizes, 4096); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
