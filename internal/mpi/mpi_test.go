package mpi

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"nestdiff/internal/geom"
	"nestdiff/internal/topology"
)

func newTorusWorld(t *testing.T, px, py int, cfg Config) *World {
	t.Helper()
	g := geom.NewGrid(px, py)
	net, err := topology.NewTorus3D(g, topology.TorusDimsFor(g.Size()), topology.DefaultTorusParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Net = net
	w, err := NewWorld(g.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0, Config{}); err == nil {
		t.Error("zero-size world accepted")
	}
	net, err := topology.NewSwitched(4, 2, topology.DefaultSwitchedParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorld(8, Config{Net: net}); err == nil {
		t.Error("undersized network accepted")
	}
}

func TestRunAllRanksExecute(t *testing.T) {
	w, err := NewWorld(64, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var count int64
	if err := w.Run(func(r *Rank) {
		atomic.AddInt64(&count, 1)
		if r.Size() != 64 {
			panic("wrong size")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if count != 64 {
		t.Fatalf("ran %d ranks, want 64", count)
	}
}

func TestSendRecvDataIntegrity(t *testing.T) {
	w, err := NewWorld(4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			buf := []float64{1, 2, 3}
			r.Send(1, 7, buf)
			buf[0] = 99 // must not affect the receiver: payload is copied
		}
		if r.ID() == 1 {
			got := r.RecvInto(0, 7, nil)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				panic("payload corrupted")
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvTagMatching(t *testing.T) {
	w, err := NewWorld(2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 2, []float64{2})
			r.Send(1, 1, []float64{1})
		case 1:
			// Receive in the opposite tag order.
			if got := r.RecvInto(0, 1, nil); got[0] != 1 {
				panic("tag 1 mismatched")
			}
			if got := r.RecvInto(0, 2, nil); got[0] != 2 {
				panic("tag 2 mismatched")
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRecvAdvancesClock(t *testing.T) {
	w := newTorusWorld(t, 4, 4, Config{})
	var recvClock float64
	if err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Compute(1.0)
			r.Send(15, 0, make([]float64, 1000))
		case 15:
			r.RecvInto(0, 0, nil)
			recvClock = r.Clock()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if recvClock <= 1.0 {
		t.Fatalf("receiver clock %g should exceed sender compute time 1.0", recvClock)
	}
	if recvClock > 1.1 {
		t.Fatalf("receiver clock %g implausibly large", recvClock)
	}
}

func TestPanicInRankIsReported(t *testing.T) {
	w, err := NewWorld(8, Config{})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) {
		if r.ID() == 3 {
			panic("boom")
		}
		// Everyone else blocks on a message that never comes; poisoning
		// must wake them instead of deadlocking the test.
		if r.ID() == 5 {
			defer func() { recover() }() // the poison panic
			r.RecvInto(3, 0, nil)
		}
	})
	if err == nil {
		t.Fatal("panic not reported")
	}
}

func TestPanicUnblocksCollectives(t *testing.T) {
	w, err := NewWorld(4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	all, err := w.All()
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) {
		if r.ID() == 0 {
			panic("collective aborter")
		}
		all.Barrier(r)
	})
	if err == nil {
		t.Fatal("panic not reported")
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	w, err := NewWorld(8, Config{})
	if err != nil {
		t.Fatal(err)
	}
	all, err := w.All()
	if err != nil {
		t.Fatal(err)
	}
	clocks := make([]float64, 8)
	if err := w.Run(func(r *Rank) {
		r.Compute(float64(r.ID()))
		all.Barrier(r)
		clocks[r.ID()] = r.Clock()
	}); err != nil {
		t.Fatal(err)
	}
	for id, c := range clocks {
		if c != 7.0 {
			t.Fatalf("rank %d clock %g after barrier, want 7.0", id, c)
		}
	}
}

func TestGatherv(t *testing.T) {
	w, err := NewWorld(8, Config{})
	if err != nil {
		t.Fatal(err)
	}
	all, err := w.All()
	if err != nil {
		t.Fatal(err)
	}
	var rootGot [][]float64
	if err := w.Run(func(r *Rank) {
		// Variable-length contributions, including an empty one.
		data := make([]float64, r.ID())
		for i := range data {
			data[i] = float64(r.ID()*100 + i)
		}
		out := all.GathervInto(r, 0, data, new(Scratch))
		if r.ID() == 0 {
			rootGot = out
		} else if out != nil {
			panic("non-root received gather output")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(rootGot) != 8 {
		t.Fatalf("root got %d buffers", len(rootGot))
	}
	for id, buf := range rootGot {
		if len(buf) != id {
			t.Fatalf("rank %d contributed %d values, want %d", id, len(buf), id)
		}
		for i, v := range buf {
			if v != float64(id*100+i) {
				t.Fatalf("rank %d buffer corrupted at %d: %g", id, i, v)
			}
		}
	}
}

func TestAlltoallvTransposesData(t *testing.T) {
	const n = 16
	w, err := NewWorld(n, Config{})
	if err != nil {
		t.Fatal(err)
	}
	all, err := w.All()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(r *Rank) {
		send := make([][]float64, n)
		for to := range send {
			if (r.ID()+to)%3 == 0 { // sparse exchange with zero-entries
				send[to] = []float64{float64(r.ID()*1000 + to)}
			}
		}
		recv := all.AlltoallvInto(r, send, new(Scratch))
		for from := range recv {
			want := (from+r.ID())%3 == 0
			if want {
				if len(recv[from]) != 1 || recv[from][0] != float64(from*1000+r.ID()) {
					panic("alltoallv payload wrong")
				}
			} else if len(recv[from]) != 0 {
				panic("unexpected payload")
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallvChargesTime(t *testing.T) {
	w := newTorusWorld(t, 4, 4, Config{})
	all, err := w.All()
	if err != nil {
		t.Fatal(err)
	}
	clocks := make([]float64, 16)
	if err := w.Run(func(r *Rank) {
		send := make([][]float64, 16)
		send[(r.ID()+8)%16] = make([]float64, 4096)
		all.AlltoallvInto(r, send, new(Scratch))
		clocks[r.ID()] = r.Clock()
	}); err != nil {
		t.Fatal(err)
	}
	for id, c := range clocks {
		if c <= 0 {
			t.Fatalf("rank %d clock %g after alltoallv", id, c)
		}
		if c != clocks[0] {
			t.Fatalf("clocks diverge after collective: %g vs %g", c, clocks[0])
		}
	}
}

func TestAlltoallvContentionIncreasesTime(t *testing.T) {
	run := func(cfg Config) float64 {
		w := newTorusWorld(t, 4, 4, cfg)
		all, err := w.All()
		if err != nil {
			t.Fatal(err)
		}
		var clock float64
		if err := w.Run(func(r *Rank) {
			send := make([][]float64, 16)
			for to := range send {
				send[to] = make([]float64, 1024)
			}
			all.AlltoallvInto(r, send, new(Scratch))
			if r.ID() == 0 {
				clock = r.Clock()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return clock
	}
	base := run(Config{})
	congested := run(Config{ContentionBytesPerSec: 1e9})
	if congested <= base {
		t.Fatalf("contention term had no effect: %g vs %g", congested, base)
	}
}

func TestSubCommunicator(t *testing.T) {
	w, err := NewWorld(16, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := w.NewComm([]int{3, 7, 11})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Size() != 3 {
		t.Fatalf("sub size = %d", sub.Size())
	}
	if i, ok := sub.CommRank(7); !ok || i != 1 {
		t.Fatalf("CommRank(7) = %d,%v", i, ok)
	}
	if _, ok := sub.CommRank(0); ok {
		t.Fatal("non-member reported as member")
	}
	var got [][]float64
	if err := w.Run(func(r *Rank) {
		if _, ok := sub.CommRank(r.ID()); !ok {
			return // non-members skip the collective entirely
		}
		out := sub.GathervInto(r, 2, []float64{float64(r.ID())}, new(Scratch))
		if r.ID() == 11 {
			got = out
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0][0] != 3 || got[1][0] != 7 || got[2][0] != 11 {
		t.Fatalf("sub gather at comm rank 2 = %v, want [[3] [7] [11]]", got)
	}
}

func TestNewCommValidation(t *testing.T) {
	w, err := NewWorld(4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.NewComm(nil); err == nil {
		t.Error("empty comm accepted")
	}
	if _, err := w.NewComm([]int{0, 0}); err == nil {
		t.Error("duplicate ranks accepted")
	}
	if _, err := w.NewComm([]int{5}); err == nil {
		t.Error("out-of-world rank accepted")
	}
}

func TestComputeNegativePanics(t *testing.T) {
	w, err := NewWorld(1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(r *Rank) { r.Compute(-1) }); err == nil {
		t.Fatal("negative compute accepted")
	}
}

func TestVirtualTimeDeterminism(t *testing.T) {
	run := func() float64 {
		w := newTorusWorld(t, 8, 8, Config{ContentionBytesPerSec: 5e9, SendOverhead: 1e-6})
		all, err := w.All()
		if err != nil {
			t.Fatal(err)
		}
		var final float64
		if err := w.Run(func(r *Rank) {
			r.Compute(float64(r.ID()) * 1e-4)
			send := make([][]float64, 64)
			send[(r.ID()*7+5)%64] = make([]float64, 100+r.ID())
			all.AlltoallvInto(r, send, new(Scratch))
			r.Compute(1e-3)
			all.Barrier(r)
			if r.ID() == 0 {
				final = r.Clock()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return final
	}
	a := run()
	for i := 0; i < 3; i++ {
		if b := run(); b != a || math.IsNaN(b) {
			t.Fatalf("virtual time not deterministic: %g vs %g", a, b)
		}
	}
}

// TestCommRegistryRecyclesOnlyHealthyBarrierChannels: a freed
// communicator hands its barrier's token channels to the next one, but not
// once the world has failed — not even in the window where World.fail has
// marked the world and not yet poisoned the barriers, or the poison would
// leave a token in a channel the next barrier owns.
func TestCommRegistryRecyclesOnlyHealthyBarrierChannels(t *testing.T) {
	w, err := NewWorld(4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	a, err := w.NewComm([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunOn([]int{0, 1, 2}, a.Barrier); err != nil {
		t.Fatal(err)
	}
	freed := slices.Clone(a.bar.chans)
	a.Free()
	b, err := w.NewComm([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range b.bar.chans {
		if !slices.Contains(freed, ch) {
			t.Fatalf("member %d of the next barrier got a new channel, not a freed one", i)
		}
	}

	w.mu.Lock()
	w.poisoned = true // what fail does before it poisons the barriers
	w.mu.Unlock()
	b.Free()
	if n := len(w.spareChans); n != 0 {
		t.Fatalf("a communicator freed during a failure recycled %d channels", n)
	}
}
