package topology

import (
	"math/rand"
	"testing"

	"nestdiff/internal/geom"
)

func TestRouteLengthMatchesHops(t *testing.T) {
	tor, g := newTestTorus(t, 16, 16)
	r := rand.New(rand.NewSource(51))
	for i := 0; i < 300; i++ {
		a, b := r.Intn(g.Size()), r.Intn(g.Size())
		links := 0
		tor.route(tor.Coord(a), tor.Coord(b), func(Link) { links++ })
		if links != tor.Hops(a, b) {
			t.Fatalf("route from %d to %d uses %d links, hops says %d", a, b, links, tor.Hops(a, b))
		}
	}
}

func TestRouteIsContiguous(t *testing.T) {
	tor, g := newTestTorus(t, 16, 16)
	r := rand.New(rand.NewSource(52))
	for i := 0; i < 100; i++ {
		a, b := r.Intn(g.Size()), r.Intn(g.Size())
		cur := tor.Coord(a)
		tor.route(tor.Coord(a), tor.Coord(b), func(l Link) {
			if l.From != cur {
				t.Fatalf("route discontinuity: at %v, link from %v", cur, l.From)
			}
			// Each link moves exactly one step in exactly one dimension.
			diffs := 0
			for d := 0; d < 3; d++ {
				delta := l.To[d] - l.From[d]
				if delta < 0 {
					delta = -delta
				}
				if wrap := tor.Dims()[d] - delta; wrap < delta {
					delta = wrap
				}
				diffs += delta
			}
			if diffs != 1 {
				t.Fatalf("link %v -> %v is not a single hop", l.From, l.To)
			}
			cur = l.To
		})
		if cur != tor.Coord(b) {
			t.Fatalf("route from %d did not reach %d", a, b)
		}
	}
}

func TestLinkLoadsConserveHopBytes(t *testing.T) {
	// Σ per-link bytes == Σ message bytes × hops: every byte is counted on
	// every link it crosses, exactly once.
	tor, g := newTestTorus(t, 16, 16)
	r := rand.New(rand.NewSource(53))
	var msgs []Message
	wantHopBytes := 0
	for i := 0; i < 200; i++ {
		m := Message{From: r.Intn(g.Size()), To: r.Intn(g.Size()), Bytes: 1 + r.Intn(4096)}
		msgs = append(msgs, m)
		if m.From != m.To {
			wantHopBytes += m.Bytes * tor.Hops(m.From, m.To)
		}
	}
	got := 0
	for _, load := range tor.LinkLoads(msgs) {
		got += load
	}
	if got != wantHopBytes {
		t.Fatalf("link loads sum to %d, hop-bytes is %d", got, wantHopBytes)
	}
}

func TestDORTimeDominatesForCongestedPatterns(t *testing.T) {
	tor, _ := newTestTorus(t, 16, 16)
	dor, err := NewDORTorus(tor)
	if err != nil {
		t.Fatal(err)
	}
	// Many senders targeting one receiver: the receiver's incoming links
	// serialize, which the per-pair maximum cannot see.
	var msgs []Message
	for from := 1; from < 64; from++ {
		msgs = append(msgs, Message{From: from, To: 0, Bytes: 1 << 16})
	}
	pair := tor.AlltoallvTime(msgs)
	contended := dor.AlltoallvTime(msgs)
	if contended <= pair {
		t.Fatalf("DOR time %g not above per-pair max %g under incast", contended, pair)
	}
	// A single message costs at least its serialization either way, and
	// DOR's estimate stays within the same order.
	single := []Message{{From: 0, To: 100, Bytes: 1 << 16}}
	p, d := tor.AlltoallvTime(single), dor.AlltoallvTime(single)
	if d <= 0 || p <= 0 {
		t.Fatal("single message should cost time")
	}
	// The per-pair model charges a per-hop byte term that DOR does not;
	// they agree within a small constant factor.
	if d > p*4 || p > d*4 {
		t.Fatalf("single-message models diverge: pair %g vs DOR %g", p, d)
	}
}

func TestDORTorusInterface(t *testing.T) {
	tor, _ := newTestTorus(t, 16, 16)
	dor, err := NewDORTorus(tor)
	if err != nil {
		t.Fatal(err)
	}
	if dor.Name() != "torus3d-dor" {
		t.Fatalf("name = %q", dor.Name())
	}
	if dor.AlltoallvTime(nil) != 0 {
		t.Fatal("empty exchange should be free")
	}
	// An incast: both the fold and the accumulator reached through the
	// Network interface must price link contention, not the embedded
	// torus's per-pair maximum.
	var incast []Message
	for from := 1; from < 64; from++ {
		incast = append(incast, Message{From: from, To: 0, Bytes: 1 << 16})
	}
	pair, want := tor.AlltoallvTime(incast), linkLoadsOracle(tor, incast)
	if pair == want {
		t.Fatalf("incast priced %v by both models; the test cannot tell them apart", pair)
	}
	if got := dor.AlltoallvTime(incast); got != want {
		t.Fatalf("DOR AlltoallvTime = %v, link-contention model %v (per-pair maximum %v)", got, want, pair)
	}
	var net Network = dor
	acc := net.NewAlltoallv()
	for _, m := range incast {
		acc.Add(m, net.Hops(m.From, m.To))
	}
	if got := acc.Time(); got != want {
		t.Fatalf("DOR accumulator = %v, link-contention model %v (per-pair maximum %v)", got, want, pair)
	}
	if _, err := NewDORTorus(nil); err == nil {
		t.Fatal("nil torus accepted")
	}
}

func TestMeshRouting(t *testing.T) {
	g := geom.NewGrid(16, 16)
	mesh, err := NewMesh3D(g, [3]int{8, 8, 4}, DefaultTorusParams())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(54))
	for i := 0; i < 200; i++ {
		a, b := r.Intn(g.Size()), r.Intn(g.Size())
		links := 0
		mesh.route(mesh.Coord(a), mesh.Coord(b), func(l Link) {
			links++
			// Mesh routes never use wraparound links.
			for d := 0; d < 3; d++ {
				delta := l.To[d] - l.From[d]
				if delta > 1 || delta < -1 {
					t.Fatalf("mesh route used wrap link %v -> %v", l.From, l.To)
				}
			}
		})
		if links != mesh.Hops(a, b) {
			t.Fatalf("mesh route length %d != hops %d", links, mesh.Hops(a, b))
		}
	}
}
