package topology

import (
	"fmt"
	"math/bits"

	"nestdiff/internal/geom"
)

// Torus3D models a 3D torus interconnect (Blue Gene/L). Every rank of the
// 2D process grid is placed at a torus coordinate by a folding-based
// topology-aware mapping (after Yu et al. [14]) so that neighbours in the
// process grid are at most a small constant number of links apart. The
// Alltoallv cost is the maximum over sender/receiver pair times, per the
// direct algorithm of Kumar et al. [11] assumed in §IV-C1.
//
// Hops reads a Hamming distance: each rank carries a one-word distance code,
// and two ranks are as many links apart as their codes differ in bits
// (halved on a torus, whose ring codes count every link twice). A shape
// whose code does not fit in a word prices hops from the coordinates
// instead.
type Torus3D struct {
	dims   [3]int
	coords [][3]int // torus coordinate of each rank
	codes  []uint64 // distance code of each rank; nil when it exceeds a word
	shift  uint     // 1 when the codes count every link twice, else 0
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
	return newTorus3D(g, dims, params, true, false)
}

// NewTorus3DLinear builds the same torus with the naive row-major rank
// placement regardless of shape compatibility — the baseline against
// which the folding-based topology-aware mapping is evaluated (§V-C).
func NewTorus3DLinear(g geom.Grid, dims [3]int, params LinkParams) (*Torus3D, error) {
	return newTorus3D(g, dims, params, false, false)
}

// NewMesh3D builds the mesh variant: identical to NewTorus3D but without
// wraparound links, so hop distances are plain per-dimension differences.
// §IV-C1's Alltoallv model covers "mesh and torus based networks"; the
// mesh is the stricter of the two (border ranks are farther apart).
func NewMesh3D(g geom.Grid, dims [3]int, params LinkParams) (*Torus3D, error) {
	return newTorus3D(g, dims, params, true, true)
}

// newTorus3D places the ranks of g on a torus (a mesh when mesh is set),
// folded when fold is set and the shapes are compatible, row-major
// otherwise.
func newTorus3D(g geom.Grid, dims [3]int, params LinkParams, fold, mesh bool) (*Torus3D, error) {
	n := g.Size()
	if dims[0] < 1 || dims[1] < 1 || dims[2] < 1 || dims[0]*dims[1]*dims[2] != n {
		return nil, fmt.Errorf("topology: torus %v does not hold %d ranks", dims, n)
	}
	t := &Torus3D{dims: dims, coords: make([][3]int, n), params: params, mesh: mesh}
	var codes distanceCodes
	if codes.build(dims, mesh) {
		t.codes, t.shift = make([]uint64, n), codes.shift
	}
	if fold && g.Px%dims[0] == 0 && g.Py%dims[1] == 0 && (g.Px/dims[0])*(g.Py/dims[1]) == dims[2] {
		t.foldMap(g, &codes)
	} else {
		t.linearMap(&codes)
	}
	return t, nil
}

// maxCodeRing is the longest dimension a distance code can hold: a ring of
// 64 nodes fills a word.
const maxCodeRing = 64

// distanceCodes holds, per dimension, the distance code of each coordinate,
// shifted to the dimension's place in a rank's word, so a rank's code is
// the OR of its three coordinates' entries. Per dimension:
//
//   - a ring of n nodes takes n bits, bit i set when the coordinate lies in
//     [i, i+⌈n/2⌉) around the ring; two nodes d links apart fall on either
//     side of 2d of the n window starts, so every link counts twice;
//   - a mesh line of n nodes takes n−1 bits, bit i set when the
//     coordinate exceeds i, so every link counts once.
//
// The Hamming distance of two ranks' codes, shifted right by shift, is
// therefore their hop count.
type distanceCodes struct {
	axis  [3][maxCodeRing]uint64
	shift uint
}

// build fills the tables for a torus of the given extents and reports
// whether the codes fit in one word.
func (c *distanceCodes) build(dims [3]int, mesh bool) bool {
	at := 0
	for d, n := range dims {
		width := n
		if mesh {
			width = n - 1
		}
		if n > maxCodeRing || at+width > 64 {
			return false
		}
		for x := 0; x < n; x++ {
			code := ones(x)
			if !mesh {
				code = ringCode(x, n, (n+1)/2)
			}
			c.axis[d][x] = code << at
		}
		at += width
	}
	if !mesh {
		c.shift = 1
	}
	return true
}

// ringCode returns the n-bit code of node x on a ring of n nodes: bit i is
// set when x lies in the window of w nodes from i on around the ring, that
// is when i lies in [x−w+1, x] modulo n.
func ringCode(x, n, w int) uint64 {
	lo := x - w + 1
	if lo < 0 { // the window wraps past node 0
		return ones(x+1) | ones(n)&^ones(n+lo)
	}
	return ones(x+1) &^ ones(lo)
}

// ones returns a word with its k low bits set (all of them when k ≥ 64).
func ones(k int) uint64 { return 1<<k - 1 }

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
func (t *Torus3D) foldMap(g geom.Grid, codes *distanceCodes) {
	tx, ty := t.dims[0], t.dims[1]
	a := g.Px / tx // number of X folds
	rank := 0      // row-major: rank = y·Px + x
	for y := 0; y < g.Py; y++ {
		by, cy := y/ty, y%ty
		if by%2 == 1 { // reverse direction on odd folds
			cy = ty - 1 - cy
		}
		for x := 0; x < g.Px; x++ {
			ax, cx := x/tx, x%tx
			if ax%2 == 1 {
				cx = tx - 1 - cx
			}
			t.place(rank, [3]int{cx, cy, by*a + ax}, codes)
			rank++
		}
	}
}

// linearMap fills the torus in row-major order (no topology awareness).
func (t *Torus3D) linearMap(codes *distanceCodes) {
	rank := 0
	for z := 0; z < t.dims[2]; z++ {
		for y := 0; y < t.dims[1]; y++ {
			for x := 0; x < t.dims[0]; x++ {
				t.place(rank, [3]int{x, y, z}, codes)
				rank++
			}
		}
	}
}

// place puts rank at torus coordinate c and, when the torus has distance
// codes, gives it c's code.
func (t *Torus3D) place(rank int, c [3]int, codes *distanceCodes) {
	t.coords[rank] = c
	if t.codes != nil {
		t.codes[rank] = codes.axis[0][c[0]] | codes.axis[1][c[1]] | codes.axis[2][c[2]]
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
// dimension) between the nodes hosting ranks a and b. It panics when either
// rank is out of range.
func (t *Torus3D) Hops(a, b int) int {
	// A rank out of range skips the codes, so validateRank reports it.
	if c := t.codes; uint(a) < uint(len(c)) && uint(b) < uint(len(c)) {
		return bits.OnesCount64(c[a]^c[b]) >> t.shift
	}
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
func (t *Torus3D) NewAlltoallv() Alltoallv {
	diameter := 0
	for _, n := range t.dims {
		if t.mesh {
			diameter += n - 1
		} else {
			diameter += n / 2
		}
	}
	return &slowestPair{params: t.params, bytes: make([]int, diameter+1)}
}

// slowestPair is the direct algorithm's aggregation rule on a mesh or torus
// (Kumar et al. [11], §IV-C1): the time of the slowest sender/receiver
// pair. At a fixed hop count PairTime never falls as the bytes grow (with
// BytesPerSec > 0 and HopBytesPerSec ≥ 0 every operation in it is
// monotone), so the slowest pair is among the largest message of each hop
// count, and only those are priced.
type slowestPair struct {
	params LinkParams
	bytes  []int // largest crossing message's bytes per hop count, 0 if none
	used   int   // one past the largest hop count with a message: what Time and Reset read
}

func (a *slowestPair) Add(m Message, hops int) {
	if m.crosses() && m.Bytes > a.bytes[hops] {
		a.bytes[hops] = m.Bytes
		a.used = max(a.used, hops+1)
	}
}

func (a *slowestPair) Time() float64 {
	var worst float64
	for hops, bytes := range a.bytes[:a.used] {
		if bytes == 0 {
			continue
		}
		if dt := a.params.PairTime(bytes, hops); dt > worst {
			worst = dt
		}
	}
	return worst
}

func (a *slowestPair) Reset() {
	clear(a.bytes[:a.used])
	a.used = 0
}

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
