package topology

import "fmt"

// This file adds a finer-grained torus cost model than the §IV-C1 direct
// per-pair maximum: messages are routed link by link with dimension-ordered
// routing (X, then Y, then Z, shortest wrap direction — Blue Gene/L's
// deterministic routing), per-link byte loads are accumulated, and the
// exchange completes when the most loaded link drains. It exposes where
// the aggregate contention constant of the mpi runtime comes from, and
// lets experiments check that the diffusion strategy's advantage survives
// a contention-aware network model.

// Link is one directed physical link of the torus, identified by its
// endpoint node coordinates.
type Link struct {
	From, To [3]int
}

// route visits every link on the dimension-ordered path from node a to
// node b.
func (t *Torus3D) route(a, b [3]int, visit func(Link)) {
	cur := a
	for d := 0; d < 3; d++ {
		for cur[d] != b[d] {
			step := t.stepDir(cur[d], b[d], t.dims[d])
			next := cur
			next[d] = (cur[d] + step + t.dims[d]) % t.dims[d]
			visit(Link{From: cur, To: next})
			cur = next
		}
	}
}

// stepDir returns +1 or -1: the direction of the shortest way around the
// ring of size n from x to y (ties and meshes go the positive way when
// forward distance is not longer).
func (t *Torus3D) stepDir(x, y, n int) int {
	fwd := (y - x + n) % n
	if t.mesh {
		if y > x {
			return 1
		}
		return -1
	}
	if fwd <= n-fwd {
		return 1
	}
	return -1
}

// LinkLoads routes every message with dimension-ordered routing and
// returns the accumulated bytes per directed link.
func (t *Torus3D) LinkLoads(msgs []Message) map[Link]int {
	loads := make(map[Link]int)
	for _, m := range msgs {
		if m.Bytes == 0 || m.From == m.To {
			continue
		}
		t.route(t.Coord(m.From), t.Coord(m.To), func(l Link) {
			loads[l] += m.Bytes
		})
	}
	return loads
}

// DORTorus wraps a Torus3D so that the Network interface's AlltoallvTime
// and NewAlltoallv use the link-contention model instead of the per-pair
// maximum. All other behaviour is inherited.
type DORTorus struct {
	*Torus3D
}

var _ Network = (*DORTorus)(nil)

// NewDORTorus builds the contention-aware variant of a folded torus.
func NewDORTorus(t *Torus3D) (*DORTorus, error) {
	if t == nil {
		return nil, fmt.Errorf("topology: nil torus")
	}
	return &DORTorus{Torus3D: t}, nil
}

// Name implements Network.
func (d *DORTorus) Name() string { return d.Torus3D.Name() + "-dor" }

// AlltoallvTime implements Network with the link-contention model.
func (d *DORTorus) AlltoallvTime(msgs []Message) float64 {
	return alltoallvTime(d, d.NewAlltoallv(), msgs)
}

// NewAlltoallv implements Network with the link-contention rule. It must
// not be the embedded torus's: that one prices the per-pair maximum.
func (d *DORTorus) NewAlltoallv() Alltoallv {
	return &linkLoads{t: d.Torus3D, loads: make([]int, 6*d.Size())}
}

// linkLoads is the link-contention aggregation rule: every message is
// routed dimension-ordered, and the exchange takes the time for the most
// loaded link to drain plus the latency of the longest route. It is never
// smaller than serializing the largest single message over one link.
type linkLoads struct {
	t       *Torus3D
	loads   []int // bytes per directed link, indexed by linkIndex
	used    []int // links with a non-zero load: what Reset clears
	maxLoad int
	maxHops int
}

func (a *linkLoads) Add(m Message, hops int) {
	if !m.crosses() {
		return
	}
	a.maxHops = max(a.maxHops, hops)
	a.t.route(a.t.coords[m.From], a.t.coords[m.To], func(l Link) {
		i := a.t.linkIndex(l)
		if a.loads[i] == 0 {
			a.used = append(a.used, i)
		}
		a.loads[i] += m.Bytes
		// Loads only grow, so the running maximum is the final one.
		a.maxLoad = max(a.maxLoad, a.loads[i])
	})
}

func (a *linkLoads) Time() float64 {
	if a.maxLoad == 0 {
		return 0
	}
	p := a.t.params
	return p.Latency + float64(a.maxHops)*p.HopLatency + float64(a.maxLoad)/p.BytesPerSec
}

func (a *linkLoads) Reset() {
	for _, i := range a.used {
		a.loads[i] = 0
	}
	a.used = a.used[:0]
	a.maxLoad, a.maxHops = 0, 0
}

// linkIndex numbers the directed link l among the 6 leaving each node: its
// source node, its dimension and whether it steps forward (+1 around the
// ring) or back. On a ring of two nodes both directions reach the same
// neighbour and get the same number, so numbers and (From, To) pairs
// correspond one to one, as in LinkLoads.
func (t *Torus3D) linkIndex(l Link) int {
	node := l.From[0] + t.dims[0]*(l.From[1]+t.dims[1]*l.From[2])
	d := 0
	for l.From[d] == l.To[d] {
		d++
	}
	back := 0
	if l.To[d] != (l.From[d]+1)%t.dims[d] {
		back = 1
	}
	return 6*node + 2*d + back
}
