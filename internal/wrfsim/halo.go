package wrfsim

import (
	"fmt"
	"math"
	"math/bits"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
)

// HaloWidth is the width of the halo border of a rank's extended field and
// so the longest stencil reach (see axisReach) a distributed step supports.
// The ambient flow moves well under one cell per (sub)step — a reach of one
// cell — and a flow whose reach exceeds HaloWidth is refused by checkReach
// wherever it is first known, because AdvectDecay would fall onto its
// clamped border path inside ext and silently leave the serial trajectory.
// core clamps a nest's ranks by it, so every rank's block is this wide.
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
// kernels would read past the strips a halo exchange can deliver.
func checkReach(ux, vy float64) error {
	for _, u := range [2]float64{ux, vy} {
		if _, err := reachOf(u); err != nil {
			return fmt.Errorf("wrfsim: flow (%g, %g): %w; use a shorter time step", ux, vy, err)
		}
	}
	return nil
}

// haloPlan is one rank's cached halo-exchange template: which of its
// up-to-8 neighbours' advection reads a strip of its block (sends), and
// which strips of theirs its own advection reads and where each lands in
// its halo-extended field (recvs). Both follow the stencil reach of the
// flow: a rank trades strips only with the neighbours on the upwind side —
// 3 of the 8 for a sub-cell flow oblique to the grid — and a strip is as
// wide as the reach, not as the halo. The plan depends only on the block
// decomposition and the per-step displacement, so it is built once per
// decomposition — at construction for the parent model, by a nest's first
// step after scatter or Redistribute — and a step re-dispatches it instead
// of rediscovering neighbours and strips per exchange (the
// execution-template idea of Mashayekhi et al.). A rebuild reuses the
// plan's slices and fields, so a nest rank that is re-planned after a
// redistribution allocates only what outgrows them. Only the owning rank's
// goroutine touches it.
type haloPlan struct {
	pg     geom.Grid      // the process grid that numbers the peers,
	dist   geom.BlockDist // the decomposition the links were derived from,
	me     geom.Point     // the rank's place in it
	ux, vy float64        // and the displacement
	sends  []haloLink     // rect: strip of our block, block coordinates
	recvs  []haloLink     // rect: where the peer's strip lands, ext coordinates
	// ext is the halo-extended source field. Only the cells a recv link
	// covers are ever written: border cells the kernel does not read — the
	// downwind side, the domain edge, the part of the halo beyond the
	// reach — stay zero.
	ext *field.Field
	// buf stages one strip at a time, outgoing then incoming: Rank.Send
	// copies its payload and RecvInto fills the buffer it is handed, so
	// one buffer serves every link.
	buf []float64
}

// haloLink is one strip of a halo exchange, sent or received.
type haloLink struct {
	peer int // world rank
	// tag is the direction tag of the strip: the sender's direction towards
	// the receiver, so a send link and the recv link it feeds carry the same.
	tag  int
	rect geom.Rect
}

// builtFor reports whether hp is the plan of the rank at me for dist under
// (ux, vy), its peers numbered by pg. A plan recycled with its nest rank
// share from a nest on another process grid therefore never serves: the
// same point of the same decomposition has other peers there.
func (hp *haloPlan) builtFor(pg geom.Grid, dist geom.BlockDist, me geom.Point, ux, vy float64) bool {
	return hp.ext != nil && hp.pg == pg && hp.dist == dist && hp.me == me && hp.ux == ux && hp.vy == vy
}

// reset rebuilds hp in place as the plan of the rank at process-grid point
// me for a domain block-distributed as dist and advected by (ux, vy) cells
// per step, a displacement checkReach accepts. Every block of dist must be
// at least HaloWidth wide and tall, which keeps each strip inside its
// sender's block.
func (hp *haloPlan) reset(pg geom.Grid, dist geom.BlockDist, me geom.Point, ux, vy float64) {
	if err := checkReach(ux, vy); err != nil {
		panic(err) // every caller has checked: a flow past the halo is refused at construction
	}
	rx, _ := reachOf(ux)
	ry, _ := reachOf(vy)
	blk := dist.BlockOf(me)
	hp.pg, hp.dist, hp.me, hp.ux, hp.vy = pg, dist, me, ux, vy
	if hp.sends == nil { // at most one link per neighbour
		hp.sends, hp.recvs = make([]haloLink, 0, 8), make([]haloLink, 0, 8)
	}
	hp.sends, hp.recvs = hp.sends[:0], hp.recvs[:0]
	hp.ext = reuseField(hp.ext, blk.Width()+2*HaloWidth, blk.Height()+2*HaloWidth)
	clear(hp.ext.Data) // the cells no link covers must read zero
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			p := geom.Point{X: me.X + dx, Y: me.Y + dy}
			if (dx == 0 && dy == 0) || !dist.Procs.Contains(p) {
				continue
			}
			peer := pg.Rank(p)
			// Our kernel reads wx by wy cells (whole edges where d == 0)
			// past our block towards p: the strip of p's block facing us,
			// which p tags with its direction towards us, (-dx, -dy).
			if wx, wy := rx.toward(dx), ry.toward(dy); wx > 0 && wy > 0 {
				strip := stripOf(dist.BlockOf(p), -dx, -dy, wx, wy)
				hp.recvs = append(hp.recvs, haloLink{peer: peer, tag: tag(-dx, -dy),
					rect: shift(strip, HaloWidth-blk.X0, HaloWidth-blk.Y0)})
			}
			// The flow is uniform, so p's kernel has our reach: it reads
			// towards us, direction (-dx, -dy), the strip of our block
			// facing it.
			if wx, wy := rx.toward(-dx), ry.toward(-dy); wx > 0 && wy > 0 {
				strip := stripOf(blk, dx, dy, wx, wy)
				hp.sends = append(hp.sends, haloLink{peer: peer, tag: tag(dx, dy),
					rect: shift(strip, -blk.X0, -blk.Y0)})
			}
		}
	}
	strip := 0
	for _, links := range [2][]haloLink{hp.sends, hp.recvs} {
		for _, l := range links {
			strip = max(strip, l.rect.Area())
		}
	}
	hp.buf = roomFor(hp.buf, strip)
}

// reuseField reshapes f (a new field when f is nil) to nx×ny on storage
// from roomFor. Samples carried over are stale: the caller overwrites or
// clears them.
func reuseField(f *field.Field, nx, ny int) *field.Field {
	if f == nil {
		f = new(field.Field)
	}
	f.NX, f.NY, f.Data = nx, ny, roomFor(f.Data, nx*ny)[:nx*ny]
	return f
}

// roomFor returns s emptied, on its own array when that holds n values,
// else on a new one sized to the next power of two: a buffer that serves
// blocks and strips of varying sizes reallocates a handful of times over
// its life, not whenever a size exceeds the last.
func roomFor(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:0]
	}
	return make([]float64, 0, 1<<bits.Len(uint(n-1)))
}

// exchange sends the strips of f its neighbours' advection reads and
// assembles the halo-extended field: interior from f, border from the
// strips received. Sends are posted first (mailbox sends never block), then
// receives; tags are base plus the link's direction tag. Strips are packed
// and unpacked a row at a time, and once the staging buffer and the mailbox
// slots' transport buffers are warm the exchange allocates nothing.
func (hp *haloPlan) exchange(r *mpi.Rank, f *field.Field, base int) *field.Field {
	ext := hp.ext
	ext.SetSub(geom.NewRect(HaloWidth, HaloWidth, f.NX, f.NY), f)
	buf := hp.buf
	for i := range hp.sends {
		l := &hp.sends[i]
		buf = buf[:0]
		for y := l.rect.Y0; y < l.rect.Y1; y++ {
			buf = append(buf, f.Data[y*f.NX+l.rect.X0:y*f.NX+l.rect.X1]...)
		}
		r.Send(l.peer, base+l.tag, buf)
	}
	for i := range hp.recvs {
		l := &hp.recvs[i]
		buf = r.RecvInto(l.peer, base+l.tag, buf)
		if len(buf) != l.rect.Area() {
			panic(fmt.Sprintf("halo payload %d != strip %v", len(buf), l.rect))
		}
		w := l.rect.Width()
		for y, row := l.rect.Y0, buf; y < l.rect.Y1; y, row = y+1, row[w:] {
			copy(ext.Data[y*ext.NX+l.rect.X0:], row[:w])
		}
	}
	hp.buf = buf
	return ext
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

// shift translates r by (dx, dy).
func shift(r geom.Rect, dx, dy int) geom.Rect {
	return geom.Rect{X0: r.X0 + dx, Y0: r.Y0 + dy, X1: r.X1 + dx, Y1: r.Y1 + dy}
}

// tag encodes a neighbour direction into a message tag in [0, 9).
func tag(dx, dy int) int { return (dy+1)*3 + (dx + 1) }
