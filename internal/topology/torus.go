package topology

import (
	"fmt"

	"nestdiff/internal/geom"
)

// Torus3D models a 3D torus interconnect (Blue Gene/L). Every rank of the
// 2D process grid is placed at a torus coordinate by a folding-based
// topology-aware mapping (after Yu et al. [14]) so that neighbours in the
// process grid are at most a small constant number of links apart. The
// Alltoallv cost is the maximum over sender/receiver pair times, per the
// direct algorithm of Kumar et al. [11] assumed in §IV-C1.
type Torus3D struct {
	dims   [3]int
	coords [][3]int // torus coordinate of each rank
	params LinkParams
	mesh   bool // no wraparound links (NewMesh3D)
}

var _ Network = (*Torus3D)(nil)

// TorusDimsFor returns the torus extents used for a given partition size,
// matching common Blue Gene/L partition shapes (1024 → 8×8×16, 512 →
// 8×8×8, 256 → 8×8×4...). Sizes without a 3D factorization of the form
// 2^a fall back to a near-balanced factorization.
func TorusDimsFor(n int) [3]int {
	switch n {
	case 32:
		return [3]int{4, 4, 2}
	case 64:
		return [3]int{4, 4, 4}
	case 128:
		return [3]int{8, 4, 4}
	case 256:
		return [3]int{8, 8, 4}
	case 512:
		return [3]int{8, 8, 8}
	case 1024:
		return [3]int{8, 8, 16}
	case 2048:
		return [3]int{8, 16, 16}
	case 4096:
		return [3]int{16, 16, 16}
	}
	// Near-balanced fallback: a ≤ b ≤ c with a·b·c = n.
	best := [3]int{1, 1, n}
	bestSpread := n
	for a := 1; a*a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		m := n / a
		for b := a; b*b <= m; b++ {
			if m%b != 0 {
				continue
			}
			c := m / b
			if spread := c - a; spread < bestSpread {
				bestSpread = spread
				best = [3]int{a, b, c}
			}
		}
	}
	return best
}

// NewTorus3D builds a torus with the given extents holding the ranks of
// the process grid g, placed by the folding mapping when the shapes are
// compatible (g.Px divisible by dims[0], g.Py by dims[1], and the fold
// factors multiplying to dims[2]) and by row-major linear fill otherwise.
func NewTorus3D(g geom.Grid, dims [3]int, params LinkParams) (*Torus3D, error) {
	n := g.Size()
	if dims[0]*dims[1]*dims[2] != n {
		return nil, fmt.Errorf("topology: torus %v does not hold %d ranks", dims, n)
	}
	t := &Torus3D{dims: dims, coords: make([][3]int, n), params: params}
	if g.Px%dims[0] == 0 && g.Py%dims[1] == 0 && (g.Px/dims[0])*(g.Py/dims[1]) == dims[2] {
		t.foldMap(g)
	} else {
		t.linearMap()
	}
	return t, nil
}

// NewTorus3DLinear builds the same torus with the naive row-major rank
// placement regardless of shape compatibility — the baseline against
// which the folding-based topology-aware mapping is evaluated (§V-C).
func NewTorus3DLinear(g geom.Grid, dims [3]int, params LinkParams) (*Torus3D, error) {
	n := g.Size()
	if dims[0]*dims[1]*dims[2] != n {
		return nil, fmt.Errorf("topology: torus %v does not hold %d ranks", dims, n)
	}
	t := &Torus3D{dims: dims, coords: make([][3]int, n), params: params}
	t.linearMap()
	return t, nil
}

// NewMesh3D builds the mesh variant: identical to NewTorus3D but without
// wraparound links, so hop distances are plain per-dimension differences.
// §IV-C1's Alltoallv model covers "mesh and torus based networks"; the
// mesh is the stricter of the two (border ranks are farther apart).
func NewMesh3D(g geom.Grid, dims [3]int, params LinkParams) (*Torus3D, error) {
	t, err := NewTorus3D(g, dims, params)
	if err != nil {
		return nil, err
	}
	t.mesh = true
	return t, nil
}

// foldMap implements the folding-based topology-aware mapping: the process
// grid column index x is folded boustrophedon-style over the torus X
// dimension (fold index ax = x/Tx), rows likewise over Y, and the two fold
// indices are packed into the Z coordinate as z = by·a + ax. The
// boustrophedon reflection makes a fold crossing keep its X (or Y)
// coordinate, so an x-neighbour crossing a fold costs exactly 1 link in z
// and a y-neighbour crossing costs min(a, Tz−a) links. Every other
// process-grid neighbour pair is 1 link apart. (A dilation-1 embedding of a
// 2D grid into a 3D torus with these shapes does not exist; a is the number
// of X folds, small by construction.)
func (t *Torus3D) foldMap(g geom.Grid) {
	tx, ty := t.dims[0], t.dims[1]
	a := g.Px / tx // number of X folds
	for rank := 0; rank < g.Size(); rank++ {
		p := g.Coord(rank)
		ax := p.X / tx
		cx := p.X % tx
		if ax%2 == 1 { // reverse direction on odd folds
			cx = tx - 1 - cx
		}
		by := p.Y / ty
		cy := p.Y % ty
		if by%2 == 1 {
			cy = ty - 1 - cy
		}
		t.coords[rank] = [3]int{cx, cy, by*a + ax}
	}
}

// linearMap fills the torus in row-major order (no topology awareness).
func (t *Torus3D) linearMap() {
	dx, dy := t.dims[0], t.dims[1]
	for rank := range t.coords {
		t.coords[rank] = [3]int{
			rank % dx,
			(rank / dx) % dy,
			rank / (dx * dy),
		}
	}
}

// Name implements Network.
func (t *Torus3D) Name() string {
	if t.mesh {
		return "mesh3d"
	}
	return "torus3d"
}

// Size implements Network.
func (t *Torus3D) Size() int { return len(t.coords) }

// Dims returns the torus extents.
func (t *Torus3D) Dims() [3]int { return t.dims }

// Coord returns the torus coordinate of a rank.
func (t *Torus3D) Coord(rank int) [3]int {
	validateRank(len(t.coords), rank)
	return t.coords[rank]
}

// Hops returns the torus Manhattan distance (with wraparound in every
// dimension) between the nodes hosting ranks a and b.
func (t *Torus3D) Hops(a, b int) int {
	validateRank(len(t.coords), a)
	validateRank(len(t.coords), b)
	ca, cb := t.coords[a], t.coords[b]
	h := 0
	for d := 0; d < 3; d++ {
		delta := ca[d] - cb[d]
		if delta < 0 {
			delta = -delta
		}
		if wrap := t.dims[d] - delta; !t.mesh && wrap < delta {
			delta = wrap
		}
		h += delta
	}
	return h
}

// PairTime implements Network.
func (t *Torus3D) PairTime(bytes, hops int) float64 {
	return t.params.PairTime(bytes, hops)
}

// AlltoallvTime implements Network: the exchange completes when the
// slowest sender/receiver pair completes (direct algorithm on a torus).
func (t *Torus3D) AlltoallvTime(msgs []Message) float64 {
	return alltoallvTime(t, t.NewAlltoallv(), msgs)
}

// NewAlltoallv implements Network with the slowest-pair rule.
func (t *Torus3D) NewAlltoallv() Alltoallv { return &slowestPair{params: t.params} }

// slowestPair is the direct algorithm's aggregation rule on a mesh or torus
// (Kumar et al. [11], §IV-C1): the time of the slowest sender/receiver
// pair.
type slowestPair struct {
	params LinkParams
	worst  float64
}

func (a *slowestPair) Add(m Message, hops int) {
	if !m.crosses() {
		return
	}
	if dt := a.params.PairTime(m.Bytes, hops); dt > a.worst {
		a.worst = dt
	}
}

func (a *slowestPair) Time() float64 { return a.worst }

func (a *slowestPair) Reset() { a.worst = 0 }

// MaxDilation returns the largest hop distance between ranks that are
// neighbours in the process grid g. It quantifies the quality of the
// topology-aware mapping (1 would be a perfect embedding).
func (t *Torus3D) MaxDilation(g geom.Grid) int {
	worst := 0
	for rank := 0; rank < g.Size(); rank++ {
		p := g.Coord(rank)
		for _, q := range []geom.Point{{X: p.X + 1, Y: p.Y}, {X: p.X, Y: p.Y + 1}} {
			if !g.Bounds().Contains(q) {
				continue
			}
			if h := t.Hops(rank, g.Rank(q)); h > worst {
				worst = h
			}
		}
	}
	return worst
}
