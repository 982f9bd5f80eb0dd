package redist

import (
	"math/rand"
	"testing"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
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
