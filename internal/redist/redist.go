// Package redist builds and evaluates the data-redistribution exchanges
// that follow a processor reallocation. A retained nest is block-distributed
// over its old processor sub-grid (the senders) and must end up
// block-distributed over its new sub-grid (the receivers); the exchange is
// the block-intersection Alltoallv of §IV (Fig. 3). The package computes
// the exact message plan and the paper's evaluation metrics: redistribution
// time under the network model, hop-bytes and average hop-bytes (§V-E,
// Fig. 10), and the sender/receiver overlap percentage (Fig. 11).
package redist

import (
	"fmt"
	"slices"

	"nestdiff/internal/geom"
	"nestdiff/internal/topology"
)

// Transfer describes the redistribution of one retained nest.
type Transfer struct {
	NestID    int
	NX, NY    int       // nest domain extents in grid points
	Old, New  geom.Rect // old and new processor sub-rectangles
	ElemBytes int       // bytes per nest grid point (all prognostic fields)
}

// Plan is the fully resolved exchange for one transfer: the remote
// messages plus the bytes that stay local because a rank is both sender
// and receiver of the same region.
type Plan struct {
	Transfer
	Msgs       []topology.Message // remote messages (From != To, Bytes > 0)
	LocalBytes int                // bytes whose owner does not change
	TotalBytes int                // NX·NY·ElemBytes
}

// BuildPlan intersects the old and new block distributions of the nest and
// returns the message plan. Every pair of (sender block, receiver block)
// with a non-empty intersection contributes one message carrying the
// intersection's payload; intersections owned by the same rank move no
// data (maximizing those is exactly the goal of the diffusion strategy).
// Messages are ordered by sender, then receiver, both row-major over their
// sub-grids: ascending rank on both sides, the order Exchange's Alltoallv
// prices them in.
func BuildPlan(g geom.Grid, tr Transfer) (Plan, error) {
	if err := tr.check(g); err != nil {
		return Plan{}, err
	}
	ov := tr.dist(tr.Old).Overlaps(tr.dist(tr.New))
	p := Plan{Transfer: tr, TotalBytes: tr.NX * tr.NY * tr.ElemBytes}
	if n := ov.Len() - ov.Kept(); n > 0 { // a plan that moves nothing keeps Msgs nil
		p.Msgs = make([]topology.Message, 0, n)
	}
	ov.Each(func(sender, receiver geom.Point, cells geom.Rect) {
		bytes := cells.Area() * tr.ElemBytes
		if sender == receiver {
			p.LocalBytes += bytes
			return
		}
		p.Msgs = append(p.Msgs, topology.Message{From: g.Rank(sender), To: g.Rank(receiver), Bytes: bytes})
	})
	return p, nil
}

// check rejects a transfer BuildPlan cannot plan on the process grid g.
func (tr Transfer) check(g geom.Grid) error {
	if tr.ElemBytes <= 0 {
		return fmt.Errorf("redist: nest %d: non-positive element size %d", tr.NestID, tr.ElemBytes)
	}
	if !g.Bounds().ContainsRect(tr.Old) || !g.Bounds().ContainsRect(tr.New) {
		return fmt.Errorf("redist: nest %d: sub-grid outside process grid", tr.NestID)
	}
	if tr.Old.Empty() || tr.New.Empty() {
		return fmt.Errorf("redist: nest %d: empty sub-grid", tr.NestID)
	}
	return nil
}

// dist is the block distribution of the nest over procs.
func (tr Transfer) dist(procs geom.Rect) geom.BlockDist {
	return geom.NewBlockDist(tr.NX, tr.NY, procs)
}

// Metrics aggregates the paper's redistribution measurements over one or
// more plans (one adaptation point can redistribute several nests).
type Metrics struct {
	// Time is the modelled redistribution time in seconds: the sum over
	// nests of the per-nest Alltoallv time, since the paper performs one
	// MPI_Alltoallv per nest.
	Time float64
	// TotalBytes is the total nest payload, moved or not.
	TotalBytes int
	// RemoteBytes is the payload that crossed the network.
	RemoteBytes int
	// LocalBytes is the payload whose owner did not change.
	LocalBytes int
	// HopBytes is Σ hops·bytes over remote messages — the network load
	// metric of Bhatele et al. [15].
	HopBytes float64
	// AvgHopBytes is HopBytes / TotalBytes: the mean number of links
	// travelled per byte of nest data (Fig. 10's y-axis).
	AvgHopBytes float64
	// OverlapPercent is 100·LocalBytes/TotalBytes (Fig. 11's y-axis).
	OverlapPercent float64
	// Messages is the number of non-empty remote messages.
	Messages int
	// MaxHops is the longest route used by any message.
	MaxHops int
}

// Measure evaluates plans against a network model.
func Measure(net topology.Network, plans []Plan) Metrics {
	t := tally{net: net, acc: net.NewAlltoallv()}
	for _, p := range plans {
		for _, msg := range p.Msgs {
			t.send(msg)
		}
		t.endNest(p.LocalBytes, p.TotalBytes)
	}
	return t.metrics()
}

// tally is the one per-message account behind Measure and
// Meter.MeasureChange: a message's hops are computed once and feed the
// byte and hop-byte totals and the network's Alltoallv accumulator. The
// byte counts and hop-bytes are integer sums (hop-bytes converted once, in
// metrics) and MaxHops a maximum, so within a nest only the accumulator's
// rule could depend on the order the messages arrive in.
type tally struct {
	net      topology.Network
	acc      topology.Alltoallv // the current nest's exchange
	hopBytes int
	m        Metrics
}

func (t *tally) send(msg topology.Message) {
	if msg.Bytes == 0 {
		return
	}
	h := t.net.Hops(msg.From, msg.To)
	t.m.RemoteBytes += msg.Bytes
	t.hopBytes += h * msg.Bytes
	t.m.Messages++
	if h > t.m.MaxHops {
		t.m.MaxHops = h
	}
	t.acc.Add(msg, h)
}

// overlaps sends every remote message of ov, the overlaps of tr's old and
// new distributions on the process grid g, and returns the bytes that stay
// local. It walks the product of ov's axis tables, y-span by y-span and
// x-span by x-span within one, with both ranks from per-axis offsets. That
// is not BuildPlan's sender-major order, but it visits the same messages
// and each sender's own in plan order, so no network's Alltoallv rule can
// tell the two apart: per-sender sums add in the same order, and maxima
// and integer link loads do not depend on it.
func (t *tally) overlaps(g geom.Grid, tr Transfer, ov *geom.BlockOverlaps) (local int) {
	xs, ys := ov.Axes()
	for _, y := range ys {
		from := (tr.Old.Y0+y.From)*g.Px + tr.Old.X0
		to := (tr.New.Y0+y.To)*g.Px + tr.New.X0
		rowBytes := (y.Hi - y.Lo) * tr.ElemBytes
		for _, x := range xs {
			msg := topology.Message{From: from + x.From, To: to + x.To, Bytes: (x.Hi - x.Lo) * rowBytes}
			if msg.From == msg.To {
				local += msg.Bytes
				continue
			}
			t.send(msg)
		}
	}
	return local
}

// endNest closes one nest's Alltoallv: its time joins the total, and the
// accumulator is emptied for the next nest.
func (t *tally) endNest(localBytes, totalBytes int) {
	t.m.Time += t.acc.Time()
	t.acc.Reset()
	t.m.TotalBytes += totalBytes
	t.m.LocalBytes += localBytes
}

func (t *tally) metrics() Metrics {
	m := t.m
	m.HopBytes = float64(t.hopBytes)
	if m.TotalBytes > 0 {
		m.AvgHopBytes = m.HopBytes / float64(m.TotalBytes)
		m.OverlapPercent = 100 * float64(m.LocalBytes) / float64(m.TotalBytes)
	}
	return m
}

// PlansForChange builds the transfer plans for every retained nest between
// two allocations. Nest domain sizes and element widths come from sizes
// and elemBytes; nests missing from either allocation are skipped (they
// were inserted or deleted, not redistributed).
func PlansForChange(g geom.Grid, old, nw map[int]geom.Rect, sizes map[int][2]int, elemBytes int) ([]Plan, error) {
	ids := retained(nil, old, nw)
	plans := make([]Plan, 0, len(ids))
	for _, id := range ids {
		tr, err := transferFor(id, old, nw, sizes, elemBytes)
		if err != nil {
			return nil, err
		}
		p, err := BuildPlan(g, tr)
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	return plans, nil
}

// retained returns, in ids' storage, the ascending IDs of the nests in
// both allocations.
func retained(ids []int, old, nw map[int]geom.Rect) []int {
	ids = ids[:0]
	for id := range nw {
		if _, ok := old[id]; ok {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// transferFor is the transfer of retained nest id between two allocations.
func transferFor(id int, old, nw map[int]geom.Rect, sizes map[int][2]int, elemBytes int) (Transfer, error) {
	sz, ok := sizes[id]
	if !ok {
		return Transfer{}, fmt.Errorf("redist: no domain size for nest %d", id)
	}
	return Transfer{NestID: id, NX: sz[0], NY: sz[1], Old: old[id], New: nw[id], ElemBytes: elemBytes}, nil
}

// A Meter prices the redistribution between two allocations straight from
// the block overlaps: no plan and no message list is built, and each
// message's hops are computed once. It keeps its scratch (the ID list, the
// axis tables and the network's accumulator) across calls, so a warm Meter
// allocates nothing. The zero value is ready to use; a Meter is not safe
// for concurrent use.
type Meter struct {
	net topology.Network
	acc topology.Alltoallv
	ids []int
	ov  geom.BlockOverlaps
}

// MeasureChange returns Measure(net, PlansForChange(g, old, nw, sizes,
// elemBytes)), field for field and bit for bit, and fails where
// PlansForChange fails. It visits the retained nests by ascending ID and
// each nest's messages once, the same messages as its plan with each
// sender's in plan order, though not the plan's order across senders.
func (mt *Meter) MeasureChange(net topology.Network, g geom.Grid, old, nw map[int]geom.Rect, sizes map[int][2]int, elemBytes int) (Metrics, error) {
	if mt.net != net {
		mt.net, mt.acc = net, net.NewAlltoallv()
	}
	mt.acc.Reset()
	t := tally{net: net, acc: mt.acc}
	mt.ids = retained(mt.ids, old, nw)
	for _, id := range mt.ids {
		tr, err := transferFor(id, old, nw, sizes, elemBytes)
		if err != nil {
			return Metrics{}, err
		}
		if err := tr.check(g); err != nil {
			return Metrics{}, err
		}
		mt.ov.Set(tr.dist(tr.Old), tr.dist(tr.New))
		t.endNest(t.overlaps(g, tr, &mt.ov), tr.NX*tr.NY*tr.ElemBytes)
	}
	return t.metrics(), nil
}
