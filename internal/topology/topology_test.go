package topology

import (
	"fmt"
	"math/rand"
	"testing"

	"nestdiff/internal/geom"
)

func TestTorusDimsFor(t *testing.T) {
	cases := []struct {
		n    int
		want [3]int
	}{
		{1024, [3]int{8, 8, 16}},
		{512, [3]int{8, 8, 8}},
		{256, [3]int{8, 8, 4}},
		{64, [3]int{4, 4, 4}},
		{60, [3]int{3, 4, 5}},
	}
	for _, c := range cases {
		got := TorusDimsFor(c.n)
		if got != c.want {
			t.Errorf("TorusDimsFor(%d) = %v, want %v", c.n, got, c.want)
		}
		if got[0]*got[1]*got[2] != c.n {
			t.Errorf("TorusDimsFor(%d) = %v does not multiply back", c.n, got)
		}
	}
}

func newTestTorus(t *testing.T, px, py int) (*Torus3D, geom.Grid) {
	t.Helper()
	g := geom.NewGrid(px, py)
	tor, err := NewTorus3D(g, TorusDimsFor(g.Size()), DefaultTorusParams())
	if err != nil {
		t.Fatal(err)
	}
	return tor, g
}

func TestTorusCoordsAreAPermutation(t *testing.T) {
	for _, size := range [][2]int{{32, 32}, {16, 32}, {16, 16}} {
		tor, g := newTestTorus(t, size[0], size[1])
		seen := make(map[[3]int]int)
		for rank := 0; rank < g.Size(); rank++ {
			c := tor.Coord(rank)
			for d := 0; d < 3; d++ {
				if c[d] < 0 || c[d] >= tor.Dims()[d] {
					t.Fatalf("rank %d coord %v outside torus %v", rank, c, tor.Dims())
				}
			}
			if prev, dup := seen[c]; dup {
				t.Fatalf("ranks %d and %d share torus node %v", prev, rank, c)
			}
			seen[c] = rank
		}
		if len(seen) != g.Size() {
			t.Fatalf("mapping is not a bijection: %d nodes for %d ranks", len(seen), g.Size())
		}
	}
}

func TestTorusFoldedMappingDilation(t *testing.T) {
	// The folding-based topology-aware mapping keeps process-grid
	// neighbours at 1 link except across fold boundaries, where a crossing
	// costs at most the X fold count (4 on the 32x32 grid, 2 below).
	cases := []struct {
		px, py, maxDil int
	}{
		{32, 32, 4},
		{16, 32, 2},
		{16, 16, 2},
	}
	for _, c := range cases {
		tor, g := newTestTorus(t, c.px, c.py)
		if d := tor.MaxDilation(g); d > c.maxDil {
			t.Errorf("grid %dx%d: max dilation %d, want <= %d", c.px, c.py, d, c.maxDil)
		}
		// The vast majority of neighbour pairs must be a single link.
		sum, n := 0, 0
		for rank := 0; rank < g.Size(); rank++ {
			p := g.Coord(rank)
			for _, q := range []geom.Point{{X: p.X + 1, Y: p.Y}, {X: p.X, Y: p.Y + 1}} {
				if !g.Bounds().Contains(q) {
					continue
				}
				sum += tor.Hops(rank, g.Rank(q))
				n++
			}
		}
		if avg := float64(sum) / float64(n); avg > 1.5 {
			t.Errorf("grid %dx%d: avg neighbour hops %.2f, want <= 1.5", c.px, c.py, avg)
		}
	}
}

func TestTorusFoldedBeatsLinear(t *testing.T) {
	// Topology awareness is the point of the folding: the average hop count
	// between process-grid neighbours must be lower than under row-major
	// placement.
	g := geom.NewGrid(32, 32)
	folded, err := NewTorus3D(g, [3]int{8, 8, 16}, DefaultTorusParams())
	if err != nil {
		t.Fatal(err)
	}
	// Force linear placement with incompatible torus dims... instead use the
	// internal linearMap by constructing a torus for a grid shape that does
	// not divide evenly: 1024 ranks as a 4x256 process grid.
	gLinear := geom.NewGrid(4, 256)
	linear, err := NewTorus3D(gLinear, [3]int{8, 8, 16}, DefaultTorusParams())
	if err != nil {
		t.Fatal(err)
	}
	avg := func(tor *Torus3D, g geom.Grid) float64 {
		sum, n := 0, 0
		for rank := 0; rank < g.Size(); rank++ {
			p := g.Coord(rank)
			q := geom.Point{X: p.X, Y: p.Y + 1}
			if !g.Bounds().Contains(q) {
				continue
			}
			sum += tor.Hops(rank, g.Rank(q))
			n++
		}
		return float64(sum) / float64(n)
	}
	if a, b := avg(folded, g), avg(linear, gLinear); a >= b {
		t.Errorf("folded avg vertical-neighbour hops %.2f not better than linear %.2f", a, b)
	}
}

func TestTorusHopsMetricProperties(t *testing.T) {
	tor, g := newTestTorus(t, 16, 16)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a, b, c := r.Intn(g.Size()), r.Intn(g.Size()), r.Intn(g.Size())
		if tor.Hops(a, a) != 0 {
			t.Fatalf("Hops(a,a) != 0")
		}
		if tor.Hops(a, b) != tor.Hops(b, a) {
			t.Fatalf("hops not symmetric for %d,%d", a, b)
		}
		if tor.Hops(a, c) > tor.Hops(a, b)+tor.Hops(b, c) {
			t.Fatalf("triangle inequality violated: %d,%d,%d", a, b, c)
		}
	}
}

func TestTorusHopsWraparound(t *testing.T) {
	// On an 8-wide ring, coordinates 0 and 7 are 1 hop apart.
	g := geom.NewGrid(16, 16)
	tor, err := NewTorus3D(g, [3]int{8, 8, 4}, DefaultTorusParams())
	if err != nil {
		t.Fatal(err)
	}
	var a, b = -1, -1
	for rank := 0; rank < g.Size(); rank++ {
		c := tor.Coord(rank)
		if c == [3]int{0, 0, 0} {
			a = rank
		}
		if c == [3]int{7, 0, 0} {
			b = rank
		}
	}
	if a < 0 || b < 0 {
		t.Fatal("could not locate corner nodes")
	}
	if h := tor.Hops(a, b); h != 1 {
		t.Fatalf("wraparound hops = %d, want 1", h)
	}
}

// TestTorusHopsMatchCoordinates: Hops == the coordinate distance on every
// pair of the folded and linear torus and the mesh, at sizes with rings of
// one node, odd rings and a code too wide for a word (101 ranks on a
// 1x1x101 torus), and on a strided sample at 4096 ranks. A rank out of
// range panics with validateRank's message, with codes or without.
func TestTorusHopsMatchCoordinates(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6, 7, 12, 27, 32, 64, 96, 101, 256, 1024, 4096} {
		px := 1
		for d := 1; d*d <= n; d++ {
			if n%d == 0 {
				px = d
			}
		}
		g := geom.NewGrid(px, n/px)
		stride := 1
		if n > 1024 {
			stride = 7
		}
		for _, c := range torusBuilds {
			tor, err := c.build(g, TorusDimsFor(n), DefaultTorusParams())
			if err != nil {
				t.Fatal(err)
			}
			if coded := tor.codes != nil; coded != (n != 101) {
				t.Errorf("%s %v: distance codes %v", c.name, tor.Dims(), coded)
			}
			for _, bad := range [][2]int{{-1, 0}, {n, 0}, {0, -1}, {0, n}} {
				rank := bad[0] + bad[1] // the other one is 0
				want := fmt.Sprintf("topology: rank %d out of range [0,%d)", rank, n)
				if got := hopsPanic(tor, bad[0], bad[1]); got != want {
					t.Errorf("%s %v: Hops(%d, %d) panics with %v, want %q", c.name, tor.Dims(), bad[0], bad[1], got, want)
				}
			}
			for a := 0; a < n; a += stride {
				for b := 0; b < n; b++ {
					if got, want := tor.Hops(a, b), coordHops(tor, a, b); got != want {
						t.Fatalf("%s %v: Hops(%d, %d) = %d, coordinates %d", c.name, tor.Dims(), a, b, got, want)
					}
				}
			}
		}
	}
}

// hopsPanic returns what Hops(a, b) panics with, nil if it returns.
func hopsPanic(tor *Torus3D, a, b int) (v any) {
	defer func() { v = recover() }()
	tor.Hops(a, b)
	return nil
}

func TestTorusBadDims(t *testing.T) {
	g := geom.NewGrid(4, 4)
	if _, err := NewTorus3D(g, [3]int{2, 2, 2}, DefaultTorusParams()); err == nil {
		t.Fatal("expected error for mismatched torus size")
	}
}

func TestTorusAlltoallvTimeIsMaxPair(t *testing.T) {
	tor, _ := newTestTorus(t, 16, 16)
	msgs := []Message{
		{From: 0, To: 1, Bytes: 1 << 20},
		{From: 2, To: 200, Bytes: 1 << 20},
		{From: 3, To: 3, Bytes: 1 << 30}, // self message: free
		{From: 4, To: 5, Bytes: 0},       // empty: free
	}
	got := tor.AlltoallvTime(msgs)
	want := tor.PairTime(1<<20, tor.Hops(2, 200))
	if h01 := tor.PairTime(1<<20, tor.Hops(0, 1)); h01 > want {
		want = h01
	}
	if got != want {
		t.Fatalf("AlltoallvTime = %g, want max pair %g", got, want)
	}
	if tor.AlltoallvTime(nil) != 0 {
		t.Fatal("empty exchange should cost 0")
	}
}

func TestPairTimeMonotone(t *testing.T) {
	p := DefaultTorusParams()
	if p.PairTime(100, 1) >= p.PairTime(200, 1) {
		t.Error("PairTime not monotone in bytes")
	}
	if p.PairTime(100, 1) >= p.PairTime(100, 5) {
		t.Error("PairTime not monotone in hops")
	}
	q := DefaultSwitchedParams() // no per-hop byte cost
	if q.PairTime(100, 1) >= q.PairTime(100, 3) {
		t.Error("switched PairTime should still grow with hop latency")
	}
}

func TestSwitchedHops(t *testing.T) {
	s, err := NewSwitched(256, 8, DefaultSwitchedParams())
	if err != nil {
		t.Fatal(err)
	}
	if s.Hops(0, 0) != 0 {
		t.Error("self hops != 0")
	}
	if s.Hops(0, 7) != 1 {
		t.Error("intra-node hops != 1")
	}
	if s.Hops(0, 8) != 2 {
		t.Error("inter-node hops != 2")
	}
	if s.Node(15) != 1 || s.Node(16) != 2 {
		t.Error("node packing wrong")
	}
}

func TestSwitchedAlltoallvSumsPerSender(t *testing.T) {
	s, err := NewSwitched(64, 8, DefaultSwitchedParams())
	if err != nil {
		t.Fatal(err)
	}
	// Sender 0 sends two messages; sender 1 one. Sender 0 dominates.
	msgs := []Message{
		{From: 0, To: 10, Bytes: 1000},
		{From: 0, To: 20, Bytes: 1000},
		{From: 1, To: 30, Bytes: 1000},
	}
	got := s.AlltoallvTime(msgs)
	want := 2 * s.PairTime(1000, 2)
	if got != want {
		t.Fatalf("AlltoallvTime = %g, want %g", got, want)
	}
}

func TestSwitchedErrors(t *testing.T) {
	if _, err := NewSwitched(0, 8, DefaultSwitchedParams()); err == nil {
		t.Error("expected error for zero size")
	}
	if _, err := NewSwitched(8, 0, DefaultSwitchedParams()); err == nil {
		t.Error("expected error for zero perNode")
	}
}

func TestMeshHasNoWraparound(t *testing.T) {
	g := geom.NewGrid(16, 16)
	torus, err := NewTorus3D(g, [3]int{8, 8, 4}, DefaultTorusParams())
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := NewMesh3D(g, [3]int{8, 8, 4}, DefaultTorusParams())
	if err != nil {
		t.Fatal(err)
	}
	if mesh.Name() != "mesh3d" {
		t.Fatalf("mesh name = %q", mesh.Name())
	}
	// Locate the ring-opposite pair (0,0,0) and (7,0,0): 1 hop on the
	// torus, 7 on the mesh.
	var a, b = -1, -1
	for rank := 0; rank < g.Size(); rank++ {
		switch mesh.Coord(rank) {
		case [3]int{0, 0, 0}:
			a = rank
		case [3]int{7, 0, 0}:
			b = rank
		}
	}
	if a < 0 || b < 0 {
		t.Fatal("corner nodes not found")
	}
	if h := torus.Hops(a, b); h != 1 {
		t.Fatalf("torus wrap hops = %d", h)
	}
	if h := mesh.Hops(a, b); h != 7 {
		t.Fatalf("mesh hops = %d, want 7", h)
	}
	// The mesh metric dominates the torus metric everywhere.
	for i := 0; i < g.Size(); i += 7 {
		for j := 0; j < g.Size(); j += 11 {
			if mesh.Hops(i, j) < torus.Hops(i, j) {
				t.Fatalf("mesh shorter than torus for %d,%d", i, j)
			}
		}
	}
}

func TestNewTorus3DLinearIgnoresShape(t *testing.T) {
	// The linear constructor places ranks row-major even for shapes the
	// folding mapping supports, giving worse neighbour locality.
	g := geom.NewGrid(32, 32)
	lin, err := NewTorus3DLinear(g, [3]int{8, 8, 16}, DefaultTorusParams())
	if err != nil {
		t.Fatal(err)
	}
	folded, err := NewTorus3D(g, [3]int{8, 8, 16}, DefaultTorusParams())
	if err != nil {
		t.Fatal(err)
	}
	if lin.MaxDilation(g) <= folded.MaxDilation(g) {
		t.Fatalf("linear dilation %d not worse than folded %d",
			lin.MaxDilation(g), folded.MaxDilation(g))
	}
	if _, err := NewTorus3DLinear(g, [3]int{2, 2, 2}, DefaultTorusParams()); err == nil {
		t.Fatal("bad dims accepted")
	}
	if lin.Size() != 1024 || lin.Name() != "torus3d" {
		t.Fatal("accessors wrong")
	}
}

func TestSwitchedAccessors(t *testing.T) {
	s, err := NewSwitched(16, 8, DefaultSwitchedParams())
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "switched" || s.Size() != 16 {
		t.Fatal("accessors wrong")
	}
}
