package mpi

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"nestdiff/internal/geom"
	"nestdiff/internal/topology"
)

// goldenSchedule runs a fixed, deterministic mix of the collectives on a
// 4x4 torus world with contention and send overhead enabled, recording
// rank 0's virtual clock after each stage. The recorded values pin the
// cost model: any change to the collectives' virtual-clock arithmetic
// breaks this test, which is the "bit-identical to the pre-change
// collectives" guarantee of the zero-copy communication layer.
func goldenSchedule(t testing.TB) []float64 {
	g := geom.NewGrid(4, 4)
	net, err := topology.NewTorus3D(g, topology.TorusDimsFor(16), topology.DefaultTorusParams())
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(16, Config{
		Net:                   net,
		ContentionBytesPerSec: 2e9,
		SendOverhead:          1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	all, err := w.All()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := w.NewComm([]int{1, 4, 9, 14})
	if err != nil {
		t.Fatal(err)
	}

	var trace []float64
	mark := func(r *Rank) {
		if r.ID() == 0 {
			trace = append(trace, r.Clock())
		}
	}
	if err := w.Run(func(r *Rank) {
		id := r.ID()
		r.Compute(float64(id)*1e-4 + 1e-5)

		// Sparse personalized all-to-all.
		send := make([][]float64, 16)
		to := (id*3 + 1) % 16
		if to != id {
			buf := make([]float64, 64+id)
			for k := range buf {
				buf[k] = float64(id*1000 + k)
			}
			send[to] = buf
		}
		all.AlltoallvInto(r, send, new(Scratch))
		mark(r)

		all.Barrier(r)
		mark(r)

		data := make([]float64, id%5)
		for k := range data {
			data[k] = float64(id*10 + k)
		}
		all.GathervInto(r, 2, data, new(Scratch))
		mark(r)

		// Point-to-point ring shift with tags.
		r.Send((id+1)%16, 5, []float64{float64(id)})
		got := r.RecvInto((id+15)%16, 5, nil)
		if len(got) != 1 || got[0] != float64((id+15)%16) {
			panic("ring payload wrong")
		}
		all.Barrier(r)
		mark(r)

		// Sub-communicator traffic from members only.
		if _, ok := sub.CommRank(id); ok {
			sub.GathervInto(r, 0, []float64{float64(id)}, new(Scratch))
			sub.Barrier(r)
		}
		all.Barrier(r)
		mark(r)
	}); err != nil {
		t.Fatal(err)
	}
	return trace
}

// goldenClocks are rank 0's clocks after each stage of goldenSchedule
// (regenerate by running this test with MPI_GOLDEN_GEN=1 and pasting the
// output). The first two stages are the values captured from the two-phase
// mutex+cond implementation that predates the zero-copy communication
// layer. The later stages were regenerated when the schedule dropped the
// reductions, Bcast, Scatterv and Allgatherv, from collectives that still
// matched that capture.
var goldenClocks = []float64{
	0.0015306445714285714,
	0.0015306445714285714,
	0.0015342645714285714,
	0.0015375331428571428,
	0.0015409131428571429,
}

func TestCollectiveClocksMatchGolden(t *testing.T) {
	trace := goldenSchedule(t)
	if os.Getenv("MPI_GOLDEN_GEN") != "" {
		for _, v := range trace {
			fmt.Printf("\t%s,\n", strconv.FormatFloat(v, 'g', 17, 64))
		}
		return
	}
	if len(trace) != len(goldenClocks) {
		t.Fatalf("trace has %d stages, golden has %d", len(trace), len(goldenClocks))
	}
	for i, v := range trace {
		if v != goldenClocks[i] {
			t.Errorf("stage %d clock %s, golden %s", i,
				strconv.FormatFloat(v, 'g', 17, 64),
				strconv.FormatFloat(goldenClocks[i], 'g', 17, 64))
		}
	}
}
