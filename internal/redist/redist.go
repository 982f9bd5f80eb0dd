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
	if tr.ElemBytes <= 0 {
		return Plan{}, fmt.Errorf("redist: nest %d: non-positive element size %d", tr.NestID, tr.ElemBytes)
	}
	if !g.Bounds().ContainsRect(tr.Old) || !g.Bounds().ContainsRect(tr.New) {
		return Plan{}, fmt.Errorf("redist: nest %d: sub-grid outside process grid", tr.NestID)
	}
	if tr.Old.Empty() || tr.New.Empty() {
		return Plan{}, fmt.Errorf("redist: nest %d: empty sub-grid", tr.NestID)
	}
	ov := geom.NewBlockDist(tr.NX, tr.NY, tr.Old).Overlaps(geom.NewBlockDist(tr.NX, tr.NY, tr.New))
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
		p.Msgs = append(p.Msgs, topology.Message{
			From:  g.Rank(sender),
			To:    g.Rank(receiver),
			Bytes: bytes,
		})
	})
	return p, nil
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
	var m Metrics
	for _, p := range plans {
		m.Time += net.AlltoallvTime(p.Msgs)
		m.TotalBytes += p.TotalBytes
		m.LocalBytes += p.LocalBytes
		for _, msg := range p.Msgs {
			if msg.Bytes == 0 {
				continue
			}
			h := net.Hops(msg.From, msg.To)
			m.RemoteBytes += msg.Bytes
			m.HopBytes += float64(h) * float64(msg.Bytes)
			m.Messages++
			if h > m.MaxHops {
				m.MaxHops = h
			}
		}
	}
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
	var ids []int
	for id := range nw {
		if _, ok := old[id]; ok {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	plans := make([]Plan, 0, len(ids))
	for _, id := range ids {
		sz, ok := sizes[id]
		if !ok {
			return nil, fmt.Errorf("redist: no domain size for nest %d", id)
		}
		p, err := BuildPlan(g, Transfer{
			NestID:    id,
			NX:        sz[0],
			NY:        sz[1],
			Old:       old[id],
			New:       nw[id],
			ElemBytes: elemBytes,
		})
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	return plans, nil
}
