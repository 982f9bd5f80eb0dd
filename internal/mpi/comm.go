package mpi

import (
	"fmt"
	"slices"
	"sort"

	"nestdiff/internal/topology"
)

// Comm is a communicator over a subset of world ranks, analogous to an MPI
// communicator. All members must call each collective on the same *Comm
// instance, in the same order. Collective arguments and results are
// indexed by *communicator* rank (0..Size-1); the mapping to world ranks
// is fixed at creation (sorted ascending).
//
// The data collectives (AlltoallvInto for redistribution, GathervInto for
// PDA) use two rendezvous: members publish buffers, the first rendezvous'
// hook prices the exchange, members copy their results out into a per-rank
// Scratch, and the second rendezvous guarantees every member finished
// copying before any sender may reuse its buffer. Barrier carries only a
// clock, so its reduce and release are fused into a single rendezvous with
// a parity-double-buffered result slot.
type Comm struct {
	world  *World
	ranks  []int       // comm rank → world rank, ascending
	index  map[int]int // world rank → comm rank
	bar    *barrier
	shared bool // the world's All communicator: Free leaves it registered

	// Data-collective scratch, valid between the two rendezvous of one
	// collective call. clocks is written by each member (own slot only)
	// before the rendezvous and read only inside rendezvous hooks.
	rows   [][][]float64 // per comm rank: the rows it published
	flat   [][]float64   // per comm rank: single buffer (gather)
	clocks []float64
	sync   float64

	// acc is hook-only scratch for the Alltoallv cost model, built by the
	// first priced exchange. Hooks of successive generations are
	// serialized by the rendezvous happens-before edges, so one
	// accumulator serves all of them.
	acc topology.Alltoallv

	// barSync is Barrier's synchronized clock, double-buffered by
	// rendezvous parity: a member may still be reading its generation's
	// slot while another member has entered the next (opposite-parity)
	// barrier, but never while anyone is two generations ahead.
	barSync [2]float64
}

// NewComm builds a communicator over the given world ranks (duplicates are
// an error; order is normalized to ascending).
func (w *World) NewComm(ranks []int) (*Comm, error) {
	if len(ranks) == 0 {
		return nil, fmt.Errorf("mpi: empty communicator")
	}
	sorted := append([]int(nil), ranks...)
	sort.Ints(sorted)
	index := make(map[int]int, len(sorted))
	for i, r := range sorted {
		if r < 0 || r >= w.n {
			return nil, fmt.Errorf("mpi: rank %d outside world of %d", r, w.n)
		}
		if _, dup := index[r]; dup {
			return nil, fmt.Errorf("mpi: duplicate rank %d in communicator", r)
		}
		index[r] = i
	}
	c := &Comm{
		world:  w,
		ranks:  sorted,
		index:  index,
		rows:   make([][][]float64, len(sorted)),
		flat:   make([][]float64, len(sorted)),
		clocks: make([]float64, len(sorted)),
	}
	w.mu.Lock()
	c.bar, w.spareChans = newBarrier(len(sorted), w.spareChans)
	w.mu.Unlock()
	w.register(c)
	return c, nil
}

// All returns the communicator spanning every world rank. The world builds
// it on first use and owns it: every call returns the same *Comm, so the
// per-interval callers (one PDA invocation each) do not grow the world's
// poison list, and Free leaves it alone.
func (w *World) All() (*Comm, error) {
	w.allOnce.Do(func() {
		if w.allComm, w.allErr = w.NewComm(w.all); w.allErr == nil {
			w.allComm.shared = true
		}
	})
	return w.allComm, w.allErr
}

// Free releases a communicator built with NewComm for one exchange: the
// world forgets it, so a long run that builds a communicator per
// redistribution holds none of them, and the next communicator reuses its
// barrier's token channels. Call it after the dispatch that used the
// communicator has returned; a freed communicator must not be used again
// (a later world failure no longer reaches it).
func (c *Comm) Free() {
	if c.shared {
		return
	}
	w := c.world
	w.mu.Lock()
	if i := slices.Index(w.comms, c); i >= 0 {
		w.comms = slices.Delete(w.comms, i, i+1)
		// fail marks the world under this lock before it poisons the
		// barriers, so a barrier about to be poisoned is never recycled.
		if !w.poisoned && c.bar.idle() {
			w.spareChans = append(w.spareChans, c.bar.chans...)
		}
	}
	w.mu.Unlock()
}

// Size returns the number of communicator members.
func (c *Comm) Size() int { return len(c.ranks) }

// CommRank translates a world rank to its comm rank, with ok=false for
// non-members.
func (c *Comm) CommRank(worldRank int) (int, bool) {
	i, ok := c.index[worldRank]
	return i, ok
}

// me returns the comm rank of r, panicking for non-members (calling a
// collective on a communicator one is not part of is a programming error).
func (c *Comm) me(r *Rank) int {
	i, ok := c.index[r.id]
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d is not in communicator", r.id))
	}
	return i
}

// copyInto copies src into a buffer from s; an empty payload stays nil.
func copyInto(s *Scratch, src []float64) []float64 {
	if len(src) == 0 {
		return nil
	}
	return append(s.Buf(len(src)), src...)
}

// Barrier synchronizes the members and their clocks (all advance to the
// maximum). Single rendezvous: nothing outlives it but the synchronized
// clock, which is parity-buffered.
func (c *Comm) Barrier(r *Rank) {
	me := c.me(r)
	p := c.bar.phase(me)
	c.clocks[me] = r.clock
	c.bar.await(me, func() {
		c.barSync[p] = maxOf(c.clocks)
	})
	r.clock = c.barSync[p]
}

// GathervInto collects every member's buffer at root. Root receives a
// slice indexed by comm rank, rows and payload copies drawn from s (valid
// until s.Reset); other members receive nil. Clocks advance to the
// synchronized maximum plus the modelled time of the slowest member→root
// message.
func (c *Comm) GathervInto(r *Rank, root int, data []float64, s *Scratch) [][]float64 {
	me := c.me(r)
	c.clocks[me] = r.clock
	c.flat[me] = data
	c.bar.await(me, func() {
		worst := 0.0
		to := c.ranks[root]
		for i, from := range c.ranks {
			if t := c.world.pairTime(from, to, 8*len(c.flat[i])); t > worst {
				worst = t
			}
		}
		c.sync = maxOf(c.clocks) + worst
	})
	var out [][]float64
	if me == root {
		out = s.Rows(len(c.ranks))
		for i := range c.ranks {
			out[i] = copyInto(s, c.flat[i])
		}
	}
	r.clock = c.sync
	c.bar.await(me, func() {
		for i := range c.flat {
			c.flat[i] = nil
		}
	})
	return out
}

// AlltoallvInto performs the personalized all-to-all exchange at the heart
// of nest redistribution (§IV): send[i] goes to comm rank i (nil or empty
// slices send nothing, matching the paper's zero-count participation of
// uninvolved ranks). The result is indexed by source comm rank; its rows
// and payload copies are drawn from s, the receive-side twin of building
// send rows from the same scratch. Everything handed out stays valid until
// s.Reset; the collective has returned on every member by the time any
// member's call returns, so resetting after the results are consumed is
// always safe. All member clocks advance by the modelled exchange time,
// including the world's contention term.
func (c *Comm) AlltoallvInto(r *Rank, send [][]float64, s *Scratch) [][]float64 {
	me := c.me(r)
	if len(send) != len(c.ranks) {
		panic(fmt.Sprintf("mpi: Alltoallv send has %d rows for %d members", len(send), len(c.ranks)))
	}
	c.clocks[me] = r.clock
	c.rows[me] = send
	c.bar.await(me, func() { c.sync = maxOf(c.clocks) + c.alltoallvTime() })
	out := s.Rows(len(c.ranks))
	for i := range c.ranks {
		if row := c.rows[i]; row != nil && len(row[me]) > 0 {
			out[i] = copyInto(s, row[me])
		}
	}
	r.clock = c.sync
	c.bar.await(me, func() {
		for i := range c.rows {
			c.rows[i] = nil
		}
	})
	return out
}

// alltoallvTime models the exchange the members published in rows: the
// network's aggregation rule (the per-pair direct-algorithm time on a
// torus) plus the world's optional contention term, in one pass that
// computes each message's hops once.
func (c *Comm) alltoallvTime() float64 {
	net := c.world.cfg.Net
	if net == nil {
		return 0
	}
	if c.acc == nil {
		c.acc = net.NewAlltoallv()
	}
	c.acc.Reset()
	var hopBytes float64
	for i, rows := range c.rows {
		for j, payload := range rows {
			if len(payload) == 0 || i == j {
				continue
			}
			m := topology.Message{From: c.ranks[i], To: c.ranks[j], Bytes: 8 * len(payload)}
			h := net.Hops(m.From, m.To)
			c.acc.Add(m, h)
			hopBytes += float64(h) * float64(m.Bytes)
		}
	}
	t := c.acc.Time()
	if cb := c.world.cfg.ContentionBytesPerSec; cb > 0 {
		t += hopBytes / cb
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
