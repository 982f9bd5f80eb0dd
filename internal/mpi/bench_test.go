package mpi

import (
	"fmt"
	"testing"

	"nestdiff/internal/geom"
	"nestdiff/internal/topology"
)

func benchWorld(b *testing.B, n int) *World {
	b.Helper()
	px, py := geom.NearSquareFactors(n)
	g := geom.NewGrid(px, py)
	net, err := topology.NewTorus3D(g, topology.TorusDimsFor(n), topology.DefaultTorusParams())
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewWorld(n, Config{Net: net})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func BenchmarkAlltoallv(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("ranks=%d", n), func(b *testing.B) {
			w := benchWorld(b, n)
			all, err := w.All()
			if err != nil {
				b.Fatal(err)
			}
			scratch := make([]Scratch, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Run(func(r *Rank) {
					s := &scratch[r.ID()]
					s.Reset()
					send := s.Rows(n)
					send[(r.ID()+n/2)%n] = s.Buf(256)[:256]
					all.AlltoallvInto(r, send, s)
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlltoallvIntoSteady amortizes World.Run's goroutine-spawn cost
// over 16 back-to-back exchanges, so it measures the collective itself
// (barrier synchronization + copy costs) rather than rank startup. Send
// rows and receive rows both come from a per-rank Scratch arena, so the
// steady state runs without heap allocation.
func BenchmarkAlltoallvIntoSteady(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("ranks=%d", n), func(b *testing.B) {
			w := benchWorld(b, n)
			all, err := w.All()
			if err != nil {
				b.Fatal(err)
			}
			scratch := make([]Scratch, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Run(func(r *Rank) {
					s := &scratch[r.ID()]
					for k := 0; k < 16; k++ {
						s.Reset()
						send := s.Rows(n)
						send[(r.ID()+n/2)%n] = s.Buf(256)[:256]
						all.AlltoallvInto(r, send, s)
					}
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBarrier(b *testing.B) {
	w := benchWorld(b, 64)
	all, err := w.All()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(func(r *Rank) {
			for k := 0; k < 10; k++ {
				all.Barrier(r)
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSendRecvPingPongPooled bounces a payload between two ranks:
// RecvInto reuses a caller buffer and leaves the transport buffer in its
// mailbox slot, where the pair's next Send copies into it instead of
// allocating.
func BenchmarkSendRecvPingPongPooled(b *testing.B) {
	w := benchWorld(b, 16)
	payload := make([]float64, 1024)
	bufs := make([][]float64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(func(r *Rank) {
			const rounds = 16
			switch r.ID() {
			case 0:
				for k := 0; k < rounds; k++ {
					r.Send(1, k, payload)
					bufs[0] = r.RecvInto(1, k, bufs[0])
				}
			case 1:
				for k := 0; k < rounds; k++ {
					bufs[1] = r.RecvInto(0, k, bufs[1])
					r.Send(0, k, payload)
				}
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
}
