package wrfsim

import (
	"fmt"
	"math"

	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
)

// HaloWidth is the longest stencil reach (see axisReach) a distributed
// step supports: how far past its own window a rank's advection may read
// the nest-wide field. The ambient flow moves well under one cell per
// (sub)step — a reach of one cell — and a flow whose reach exceeds
// HaloWidth is refused by checkReach wherever it is first known. core
// clamps a nest's ranks by it, and checkHalo refuses a decomposition
// otherwise, so every rank's block is this wide: then every cell a rank
// reads lies in its own window or one of its 8 neighbours', the only ranks
// whose publication it can wait on.
const HaloWidth = 2

// axisReach is how far outside its own block a rank's advection reads
// along one axis: lo cells below the block's first sample, hi cells above
// its last. The semi-Lagrangian kernel (field.AdvectDecay, Field.Bilinear)
// evaluates exactly two source indices per axis, floor(x-u) and that plus
// one, so a displacement of u cells per step reaches
//
//	lo = max(0, ceil(u))       from the block's first sample, floor(x-u)
//	hi = max(0, floor(-u)+1)   from its last one, floor(x-u)+1
//
// cells: only the upwind side unless u is a whole number of cells. At
// u = 0 the rule keeps hi = 1: the kernel still evaluates the +1 neighbour
// there, with weight zero, and fetching it keeps the plan a statement about
// which samples are read, not about which of them can change the result.
type axisReach struct{ lo, hi int }

// reachOf returns the reach of a displacement of u cells per step, or an
// error naming it when it exceeds HaloWidth (or u is not a number).
func reachOf(u float64) (axisReach, error) {
	lo := math.Max(0, math.Ceil(u))
	hi := math.Max(0, math.Floor(-u)+1)
	if !(lo <= HaloWidth && hi <= HaloWidth) {
		return axisReach{}, fmt.Errorf("a displacement of %g cells per step reaches %g cells into a neighbouring block, beyond the %d-cell halo",
			u, math.Max(lo, hi), HaloWidth)
	}
	return axisReach{lo: int(lo), hi: int(hi)}, nil
}

// toward returns how many cells the kernel reads past the block's edge in
// direction d (-1 below, +1 above). Along an axis a neighbour direction
// leaves alone (d == 0) the strip spans the whole block edge whatever the
// reach, which any positive value stands for.
func (a axisReach) toward(d int) int {
	switch d {
	case -1:
		return a.lo
	case 1:
		return a.hi
	}
	return 1
}

// checkReach rejects a per-step displacement (ux, vy), in cells of the grid
// being advected, whose stencil reach exceeds the halo: the distributed
// kernels would read cells of ranks they never wait on.
func checkReach(ux, vy float64) error {
	for _, u := range [2]float64{ux, vy} {
		if _, err := reachOf(u); err != nil {
			return fmt.Errorf("wrfsim: flow (%g, %g): %w; use a shorter time step", ux, vy, err)
		}
	}
	return nil
}

// haloPlan is one rank's cached halo-exchange template: which of its
// up-to-8 neighbours' advection reads a strip of its window (sends: the
// downwind ranks it publishes to), and which strips of theirs its own
// advection reads (recvs: the upwind ranks it waits on before it reads
// them in place). Both follow the stencil reach of the flow: a rank trades
// strips only with the neighbours on the upwind side — 3 of the 8 for a
// sub-cell flow oblique to the grid — and a strip is as wide as the reach,
// not as the halo. The plan depends only on the block decomposition and
// the per-step displacement, so a nest's first step after it is placed or
// redistributed builds it and every later step re-dispatches it instead of
// rediscovering neighbours per exchange (the execution-template idea of
// Mashayekhi et al.). Each send link's modelled transit time is fixed too,
// so it is priced once per plan and world. A plan holds its links in
// place, so building one allocates nothing. Only the owning rank's
// goroutine touches it.
type haloPlan struct {
	pg     geom.Grid      // the process grid that numbers the peers,
	dist   geom.BlockDist // the decomposition the links were derived from,
	me     geom.Point     // the rank's place in it
	ux, vy float64        // and the displacement
	world  *mpi.World     // the world the sends were priced on; nil: unpriced
	sends  []haloLink
	recvs  []haloLink
	// links backs sends and recvs: at most one link per neighbour each.
	links [2][8]haloLink
}

// haloLink is one link of a halo exchange, sent or received, and its
// strip: the cells of the sender's window, in nest coordinates, that the
// receiver's advection reads in place once the sender has published them.
type haloLink struct {
	peer int // world rank
	// tag is the direction tag of the strip: the sender's direction towards
	// the receiver, so a send link and the recv link it feeds carry the same.
	tag  int
	rect geom.Rect
	// transit is a send link's modelled time in flight (mpi.Rank.LinkTime),
	// set when the plan is priced.
	transit float64
}

// builtFor reports whether hp is the plan of the rank at me for dist under
// (ux, vy), its peers numbered by pg, priced on world w. A plan recycled
// with its nest rank share from a nest on another process grid therefore
// never serves: the same point of the same decomposition has other peers
// there; nor does one priced on another world, whose network may price
// its links differently.
func (hp *haloPlan) builtFor(w *mpi.World, pg geom.Grid, dist geom.BlockDist, me geom.Point, ux, vy float64) bool {
	return hp.world == w && hp.pg == pg && hp.dist == dist && hp.me == me && hp.ux == ux && hp.vy == vy
}

// reset rebuilds hp in place as the plan of the rank at process-grid point
// me for a domain block-distributed as dist and advected by (ux, vy) cells
// per step, a displacement checkReach accepts. Every block of dist must be
// at least HaloWidth wide and tall, which keeps each strip inside its
// sender's window.
func (hp *haloPlan) reset(pg geom.Grid, dist geom.BlockDist, me geom.Point, ux, vy float64) {
	if err := checkReach(ux, vy); err != nil {
		panic(err) // every caller has checked: a flow past the halo is refused at construction
	}
	rx, _ := reachOf(ux)
	ry, _ := reachOf(vy)
	blk := dist.BlockOf(me)
	hp.pg, hp.dist, hp.me, hp.ux, hp.vy, hp.world = pg, dist, me, ux, vy, nil
	hp.sends, hp.recvs = hp.links[0][:0], hp.links[1][:0]
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			p := geom.Point{X: me.X + dx, Y: me.Y + dy}
			if (dx == 0 && dy == 0) || !dist.Procs.Contains(p) {
				continue
			}
			peer := pg.Rank(p)
			// Our kernel reads wx by wy cells (whole edges where d == 0)
			// past our window towards p: the strip of p's window facing us,
			// which p tags with its direction towards us, (-dx, -dy).
			if wx, wy := rx.toward(dx), ry.toward(dy); wx > 0 && wy > 0 {
				hp.recvs = append(hp.recvs, haloLink{peer: peer, tag: tag(-dx, -dy),
					rect: stripOf(dist.BlockOf(p), -dx, -dy, wx, wy)})
			}
			// The flow is uniform, so p's kernel has our reach: it reads
			// towards us, direction (-dx, -dy), the strip of our window
			// facing it.
			if wx, wy := rx.toward(-dx), ry.toward(-dy); wx > 0 && wy > 0 {
				hp.sends = append(hp.sends, haloLink{peer: peer, tag: tag(dx, dy),
					rect: stripOf(blk, dx, dy, wx, wy)})
			}
		}
	}
}

// price sets each send link's modelled transit time on r's world w, the
// world the plan is then built for.
func (hp *haloPlan) price(w *mpi.World, r *mpi.Rank) {
	for i := range hp.sends {
		l := &hp.sends[i]
		l.transit = r.LinkTime(l.peer, 8*l.rect.Area()) // one float64 per cell
	}
	hp.world = w
}

// exchange is substep s of the dispatch that started at nest substep
// base, one-sided: st publishes its window of the substep's buffer, which
// it has just deposited into, and then waits until each upwind neighbour
// (peers, by world rank) has published its own — MPI_Win_sync and
// MPI_Get semantics on a shared-memory window, with no sample copied or
// queued: the caller's advection then reads the neighbours' windows in
// place. The publication is each send link's modelled arrival (Rank.Post:
// the clock arithmetic and fault rules of a send, tagged base-relative as
// the strip's message was) and the sequence counter, raised to base+s+1
// last; a reader waits for the counter (Rank.Await) and takes the arrival
// into its clock (Rank.Arrive). Writers never wait for their readers: a
// published window stays untouched for the rest of the dispatch (the
// stepping rank advects into the ring's next buffer), and the next
// dispatch, which reuses it, starts only after every reader has returned.
// An exchange allocates nothing.
func (st *nestRank) exchange(r *mpi.Rank, peers []*nestRank, s, base int) {
	hp := &st.halo
	tags := (base + s) * 16
	for i := range hp.sends {
		l := &hp.sends[i]
		at, lost := r.Post(l.peer, tags+l.tag, l.transit)
		st.arrive[s][l.tag] = arrival{at: at, lost: lost}
	}
	want := int64(base + s + 1)
	st.seq.Store(want)
	for i := range hp.sends {
		r.Notify(hp.sends[i].peer)
	}
	for i := range hp.recvs {
		l := &hp.recvs[i]
		from := peers[l.peer]
		r.Await(l.peer, &from.seq, want)
		p := from.arrive[s][l.tag]
		r.Arrive(l.peer, tags+l.tag, p.at, p.lost)
	}
}

// stripOf returns the part of block within wx columns (dx != 0) and wy rows
// (dy != 0) of its boundary facing direction (dx, dy).
func stripOf(block geom.Rect, dx, dy, wx, wy int) geom.Rect {
	out := block
	switch dx {
	case -1:
		out.X1 = min(out.X1, out.X0+wx)
	case 1:
		out.X0 = max(out.X0, out.X1-wx)
	}
	switch dy {
	case -1:
		out.Y1 = min(out.Y1, out.Y0+wy)
	case 1:
		out.Y0 = max(out.Y0, out.Y1-wy)
	}
	return out
}

// tag encodes a neighbour direction into a message tag in [0, 9).
func tag(dx, dy int) int { return (dy+1)*3 + (dx + 1) }
