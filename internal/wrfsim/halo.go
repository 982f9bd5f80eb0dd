package wrfsim

import (
	"fmt"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
)

// haloWidth is the stencil reach of one advection step in cells. The
// ambient flow moves well under one cell per 2-minute step, so a width of
// 2 is conservative.
const haloWidth = 2

// haloPlan is one rank's cached halo-exchange template: who its up-to-8
// neighbours are, which strip of its block each of them needs and where
// each of their strips lands in its halo-extended field. It depends only
// on the block decomposition, so it is built once per decomposition — at
// construction for the parent model, by a nest's first step after scatter
// or Redistribute — and a step re-dispatches it instead of rediscovering
// neighbours and strips per exchange (the execution-template idea of
// Mashayekhi et al.). Only the owning rank's goroutine touches it.
type haloPlan struct {
	links []haloLink
	// ext is the halo-extended source field. Its border cells that face no
	// neighbour (the domain edge) are never written and stay zero.
	ext *field.Field
	// buf stages one strip at a time, outgoing then incoming: Rank.Send
	// copies its payload and RecvInto fills the buffer it is handed, so
	// one buffer serves every link.
	buf []float64
}

// haloLink is one neighbour of a halo exchange.
type haloLink struct {
	peer    int       // world rank
	sendTag int       // direction tag of the strip we send
	recvTag int       // direction tag of the strip the peer sends us
	send    geom.Rect // strip of our block the peer needs, block coordinates
	recv    geom.Rect // where the peer's strip lands, ext coordinates
}

// newHaloPlan builds the plan of the rank at process-grid point me for a
// domain block-distributed as dist. Every block of dist must be at least
// haloWidth wide and tall, which keeps each incoming strip inside ext.
func newHaloPlan(pg geom.Grid, dist geom.BlockDist, me geom.Point) haloPlan {
	blk := dist.BlockOf(me)
	hp := haloPlan{
		links: make([]haloLink, 0, 8),
		ext:   field.New(blk.Width()+2*haloWidth, blk.Height()+2*haloWidth),
	}
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			p := geom.Point{X: me.X + dx, Y: me.Y + dy}
			if (dx == 0 && dy == 0) || !dist.Procs.Contains(p) {
				continue
			}
			// The peer sends the strip of its block facing us: its
			// direction towards us is (-dx, -dy).
			hp.links = append(hp.links, haloLink{
				peer:    pg.Rank(p),
				sendTag: tag(dx, dy),
				recvTag: tag(-dx, -dy),
				send:    shift(stripOf(blk, dx, dy), -blk.X0, -blk.Y0),
				recv:    shift(stripOf(dist.BlockOf(p), -dx, -dy), haloWidth-blk.X0, haloWidth-blk.Y0),
			})
		}
	}
	return hp
}

// exchange sends f's border strips to the neighbours and assembles the
// halo-extended field: interior from f, borders from the strips received.
// Sends are posted first (mailbox sends never block), then receives; tags
// are base plus the link's direction tag. Strips are packed and unpacked a
// row at a time, and once the staging buffer and the pooled transport
// buffers are warm the exchange allocates nothing.
func (hp *haloPlan) exchange(r *mpi.Rank, f *field.Field, base int) *field.Field {
	ext := hp.ext
	ext.SetSub(geom.NewRect(haloWidth, haloWidth, f.NX, f.NY), f)
	buf := hp.buf
	for i := range hp.links {
		l := &hp.links[i]
		buf = buf[:0]
		for y := l.send.Y0; y < l.send.Y1; y++ {
			buf = append(buf, f.Data[y*f.NX+l.send.X0:y*f.NX+l.send.X1]...)
		}
		r.Send(l.peer, base+l.sendTag, buf)
	}
	for i := range hp.links {
		l := &hp.links[i]
		buf = r.RecvInto(l.peer, base+l.recvTag, buf)
		if len(buf) != l.recv.Area() {
			panic(fmt.Sprintf("halo payload %d != strip %v", len(buf), l.recv))
		}
		w := l.recv.Width()
		for y, row := l.recv.Y0, buf; y < l.recv.Y1; y, row = y+1, row[w:] {
			copy(ext.Data[y*ext.NX+l.recv.X0:], row[:w])
		}
	}
	hp.buf = buf
	return ext
}

// stripOf returns the part of block within haloWidth of its boundary
// facing direction (dx, dy).
func stripOf(block geom.Rect, dx, dy int) geom.Rect {
	out := block
	switch dx {
	case -1:
		out.X1 = min(out.X1, out.X0+haloWidth)
	case 1:
		out.X0 = max(out.X0, out.X1-haloWidth)
	}
	switch dy {
	case -1:
		out.Y1 = min(out.Y1, out.Y0+haloWidth)
	case 1:
		out.Y0 = max(out.Y0, out.Y1-haloWidth)
	}
	return out
}

// shift translates r by (dx, dy).
func shift(r geom.Rect, dx, dy int) geom.Rect {
	return geom.Rect{X0: r.X0 + dx, Y0: r.Y0 + dy, X1: r.X1 + dx, Y1: r.Y1 + dy}
}

// tag encodes a neighbour direction into a message tag in [0, 9).
func tag(dx, dy int) int { return (dy+1)*3 + (dx + 1) }
