package redist

import (
	"fmt"
	"math"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
)

// Window is a field holding the samples of the nest-domain cells from
// (X0, Y0) on: one rank's block or, with a zero origin, the whole domain.
type Window struct {
	F      *field.Field
	X0, Y0 int
}

// rows calls fn with the window's samples of each row of cells.
func (win Window) rows(cells geom.Rect, fn func(row []float64)) {
	for y := cells.Y0; y < cells.Y1; y++ {
		at := (y-win.Y0)*win.F.NX + cells.X0 - win.X0
		fn(win.F.Data[at : at+cells.Width()])
	}
}

// piece is one block intersection as one side of the exchange sees it: the
// cells that travel between world ranks rank and peer.
type piece struct {
	rank, peer int
	cells      geom.Rect
}

// member is one participating rank with the pieces it sends and receives.
type member struct {
	rank         int
	sends, recvs []piece
}

// members groups the two piece lists, each ascending in rank, by rank: the
// senders ∪ receivers of the exchange in ascending world-rank order.
func members(sends, recvs []piece) []member {
	var out []member
	for len(sends) > 0 || len(recvs) > 0 {
		m := member{rank: math.MaxInt}
		if len(sends) > 0 {
			m.rank = sends[0].rank
		}
		if len(recvs) > 0 {
			m.rank = min(m.rank, recvs[0].rank)
		}
		m.sends, sends = cutRank(sends, m.rank)
		m.recvs, recvs = cutRank(recvs, m.rank)
		out = append(out, m)
	}
	return out
}

// cutRank splits off the leading pieces that belong to rank.
func cutRank(ps []piece, rank int) (own, rest []piece) {
	n := 0
	for n < len(ps) && ps[n].rank == rank {
		n++
	}
	return ps[:n], ps[n:]
}

// Exchange executes the redistribution that BuildPlan prices: the nest
// starts block-distributed as from, one Alltoallv moves every block
// intersection from its old owner to its new one (§IV, Fig. 3), and the
// nest ends block-distributed as to. Both sides of every message come from
// the same enumeration as the plan's, so the executed message set, its
// order and therefore its modelled time are the plan's.
//
// Only the ranks that own a non-empty block on either side are dispatched,
// on a communicator of just those ranks; every other rank would have
// contributed zero counts. src and dst return a participating rank's view
// of the old and the new distribution; they are called on that rank's
// goroutine, at most once each per rank. scratch holds one arena per world
// rank. The world must span the process grid g. Returned are the modelled
// exchange time and the number of samples that changed owner.
func Exchange(w *mpi.World, g geom.Grid, from, to geom.BlockDist, scratch []mpi.Scratch, src, dst func(rank int) Window) (elapsed float64, moved int, err error) {
	// Each rank's send list and unpack list: the enumeration once per
	// direction, which leaves both grouped by the rank that uses them.
	fwd := from.Overlaps(to)
	sends := make([]piece, 0, fwd.Len())
	fwd.Each(func(s, r geom.Point, cells geom.Rect) {
		sends = append(sends, piece{rank: g.Rank(s), peer: g.Rank(r), cells: cells})
		if s != r {
			moved += cells.Area()
		}
	})
	recvs := make([]piece, 0, len(sends))
	to.Overlaps(from).Each(func(r, s geom.Point, cells geom.Rect) {
		recvs = append(recvs, piece{rank: g.Rank(r), peer: g.Rank(s), cells: cells})
	})
	ms := members(sends, recvs)
	ranks := make([]int, len(ms))
	for i, m := range ms {
		ranks[i] = m.rank
	}
	comm, err := w.NewComm(ranks)
	if err != nil {
		return 0, 0, err
	}
	defer comm.Free()

	err = w.RunOn(ranks, func(r *mpi.Rank) {
		me, _ := comm.CommRank(r.ID())
		m := ms[me]
		// Send and receive rows both come from the rank's own arena;
		// Alltoallv copies receive rows out before its final rendezvous, so
		// rewinding here cannot race with a peer still reading a previous
		// exchange's payloads.
		s := &scratch[m.rank]
		s.Reset()
		start := r.Clock()

		send := s.Rows(comm.Size())
		if len(m.sends) > 0 {
			win := src(m.rank)
			for _, p := range m.sends {
				payload := s.Buf(p.cells.Area())
				win.rows(p.cells, func(row []float64) { payload = append(payload, row...) })
				peer, _ := comm.CommRank(p.peer)
				send[peer] = payload
			}
		}

		recv := comm.AlltoallvInto(r, send, s)

		// The unpack list is the send lists' mirror image, so payloads
		// carry no headers.
		if len(m.recvs) > 0 {
			win := dst(m.rank)
			for _, p := range m.recvs {
				peer, _ := comm.CommRank(p.peer)
				payload := recv[peer]
				if len(payload) != p.cells.Area() {
					panic(fmt.Sprintf("redist: payload of %d samples from rank %d for intersection %v", len(payload), p.peer, p.cells))
				}
				win.rows(p.cells, func(row []float64) {
					copy(row, payload)
					payload = payload[len(row):]
				})
			}
		}
		if me == 0 {
			elapsed = r.Clock() - start
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return elapsed, moved, nil
}
