package topology

import (
	"fmt"
	"math/rand"
	"testing"

	"nestdiff/internal/geom"
)

// coordHops is Torus3D.Hops before the distance codes, kept verbatim: the
// torus Manhattan distance from the coordinates. The torus oracles route
// through it, not through the Hops under test.
func coordHops(t *Torus3D, a, b int) int {
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

// The three oracles below are the AlltoallvTime loops the accumulators
// replaced, kept verbatim but for the torus hops, which come from
// coordHops: each network's fold must match its oracle exactly.

// slowestPairOracle is Torus3D.AlltoallvTime before the accumulators.
func slowestPairOracle(t *Torus3D, msgs []Message) float64 {
	var worst float64
	for _, m := range msgs {
		if m.Bytes == 0 || m.From == m.To {
			continue
		}
		if dt := t.PairTime(m.Bytes, coordHops(t, m.From, m.To)); dt > worst {
			worst = dt
		}
	}
	return worst
}

// senderSumsOracle is Switched.AlltoallvTime before the accumulators.
func senderSumsOracle(s *Switched, msgs []Message) float64 {
	perSender := make(map[int]float64)
	for _, m := range msgs {
		if m.Bytes == 0 || m.From == m.To {
			continue
		}
		perSender[m.From] += s.PairTime(m.Bytes, s.Hops(m.From, m.To))
	}
	var worst float64
	for _, t := range perSender {
		if t > worst {
			worst = t
		}
	}
	return worst
}

// linkLoadsOracle is DORTorus.AlltoallvTime before the accumulators
// (Torus3D.AlltoallvTimeDOR over MaxLinkLoad).
func linkLoadsOracle(t *Torus3D, msgs []Message) float64 {
	maxLoad := 0
	for _, load := range t.LinkLoads(msgs) {
		if load > maxLoad {
			maxLoad = load
		}
	}
	if maxLoad == 0 {
		return 0
	}
	maxHops := 0
	for _, m := range msgs {
		if m.Bytes == 0 || m.From == m.To {
			continue
		}
		if h := coordHops(t, m.From, m.To); h > maxHops {
			maxHops = h
		}
	}
	return t.params.Latency + float64(maxHops)*t.params.HopLatency +
		float64(maxLoad)/t.params.BytesPerSec
}

// randomMessages draws n messages over size ranks, with self-sends,
// zero-byte messages and senders in no particular order among them.
func randomMessages(r *rand.Rand, size, n int) []Message {
	msgs := make([]Message, n)
	for i := range msgs {
		m := Message{From: r.Intn(size), To: r.Intn(size), Bytes: 1 + r.Intn(1<<16)}
		switch r.Intn(8) {
		case 0:
			m.To = m.From
		case 1:
			m.Bytes = 0
		}
		msgs[i] = m
	}
	return msgs
}

func TestAlltoallvFoldsMatchOracles(t *testing.T) {
	type priced struct {
		name   string
		net    Network
		oracle func([]Message) float64
	}
	var nets []priced
	// 4x4 puts 16 ranks on a 2x2x4 torus: rings of two, where both
	// directions reach the same neighbour.
	for _, shape := range [][2]int{{16, 16}, {4, 4}, {6, 5}} {
		g := geom.NewGrid(shape[0], shape[1])
		dims := TorusDimsFor(g.Size())
		folded, err := NewTorus3D(g, dims, DefaultTorusParams())
		if err != nil {
			t.Fatal(err)
		}
		linear, err := NewTorus3DLinear(g, dims, DefaultTorusParams())
		if err != nil {
			t.Fatal(err)
		}
		mesh, err := NewMesh3D(g, dims, DefaultTorusParams())
		if err != nil {
			t.Fatal(err)
		}
		sw, err := NewSwitched(g.Size(), 8, DefaultSwitchedParams())
		if err != nil {
			t.Fatal(err)
		}
		for i, tor := range []*Torus3D{folded, linear, mesh} {
			dor, err := NewDORTorus(tor)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/%dx%d", []string{"folded", "linear", "mesh"}[i], shape[0], shape[1])
			tor := tor
			nets = append(nets,
				priced{name, tor, func(m []Message) float64 { return slowestPairOracle(tor, m) }},
				priced{name + "-dor", dor, func(m []Message) float64 { return linkLoadsOracle(tor, m) }})
		}
		nets = append(nets, priced{fmt.Sprintf("switched/%dx%d", shape[0], shape[1]), sw,
			func(m []Message) float64 { return senderSumsOracle(sw, m) }})
	}
	r := rand.New(rand.NewSource(36))
	for _, p := range nets {
		t.Run(p.name, func(t *testing.T) {
			// One accumulator across every list: Reset must leave nothing
			// of the previous exchange behind.
			acc := p.net.NewAlltoallv()
			for trial := 0; trial < 50; trial++ {
				msgs := randomMessages(r, p.net.Size(), r.Intn(300))
				want := p.oracle(msgs)
				if got := p.net.AlltoallvTime(msgs); got != want {
					t.Fatalf("trial %d: AlltoallvTime = %v, oracle %v", trial, got, want)
				}
				acc.Reset()
				for _, m := range msgs {
					acc.Add(m, p.net.Hops(m.From, m.To))
				}
				if got := acc.Time(); got != want {
					t.Fatalf("trial %d: reused accumulator = %v, oracle %v", trial, got, want)
				}
			}
		})
	}
}

// torusBuilds are the three Torus3D constructors: the folded and linear
// torus and the mesh.
var torusBuilds = []struct {
	name  string
	build func(geom.Grid, [3]int, LinkParams) (*Torus3D, error)
}{{"folded", NewTorus3D}, {"linear", NewTorus3DLinear}, {"mesh", NewMesh3D}}

// pricedNet is a network with the oracle its Alltoallv fold must match.
type pricedNet struct {
	name   string
	net    Network
	oracle func([]Message) float64
}

// pricedNets returns every network over g under params: the folded and
// linear torus and the mesh, each also with dimension-ordered routing, and
// the switched fabric of 8-core nodes.
func pricedNets(t testing.TB, g geom.Grid, params LinkParams) []pricedNet {
	t.Helper()
	dims := TorusDimsFor(g.Size())
	var nets []pricedNet
	for _, c := range torusBuilds {
		tor, err := c.build(g, dims, params)
		if err != nil {
			t.Fatal(err)
		}
		dor, err := NewDORTorus(tor)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets,
			pricedNet{c.name, tor, func(m []Message) float64 { return slowestPairOracle(tor, m) }},
			pricedNet{c.name + "-dor", dor, func(m []Message) float64 { return linkLoadsOracle(tor, m) }})
	}
	sw, err := NewSwitched(g.Size(), 8, params)
	if err != nil {
		t.Fatal(err)
	}
	return append(nets, pricedNet{"switched", sw, func(m []Message) float64 { return senderSumsOracle(sw, m) }})
}

// FuzzAlltoallvFolds: on every network, AlltoallvTime and a reused
// accumulator's Time == the network's oracle, under both default parameter
// sets and under the torus constants without the per-hop byte term. Each
// 8 input bytes are a message: sender, receiver, a kind (0 makes it a
// self-send, 1 a zero-byte message) and 40 bits of byte count.
func FuzzAlltoallvFolds(f *testing.F) {
	r := rand.New(rand.NewSource(50))
	for _, shape := range [][2]int{{16, 16}, {4, 4}, {6, 5}} {
		data := make([]byte, 8*40)
		r.Read(data)
		f.Add(uint8(shape[0]-1), uint8(shape[1]-1), data)
	}
	noHopBytes := DefaultTorusParams()
	noHopBytes.HopBytesPerSec = 0
	f.Fuzz(func(t *testing.T, px, py uint8, data []byte) {
		g := geom.NewGrid(1+int(px)%16, 1+int(py)%16)
		var msgs []Message
		for ; len(data) >= 8 && len(msgs) < 512; data = data[8:] {
			m := Message{From: int(data[0]) % g.Size(), To: int(data[1]) % g.Size()}
			for i := 7; i >= 3; i-- {
				m.Bytes = m.Bytes<<8 | int(data[i])
			}
			switch data[2] % 8 {
			case 0:
				m.To = m.From
			case 1:
				m.Bytes = 0
			}
			msgs = append(msgs, m)
		}
		for _, params := range []LinkParams{DefaultTorusParams(), DefaultSwitchedParams(), noHopBytes} {
			for _, p := range pricedNets(t, g, params) {
				want := p.oracle(msgs)
				if got := p.net.AlltoallvTime(msgs); got != want {
					t.Fatalf("%s %+v: AlltoallvTime = %v, oracle %v", p.name, params, got, want)
				}
				acc := p.net.NewAlltoallv()
				for pass := 0; pass < 2; pass++ {
					acc.Reset()
					for _, m := range msgs {
						acc.Add(m, p.net.Hops(m.From, m.To))
					}
					if got := acc.Time(); got != want {
						t.Fatalf("%s %+v pass %d: accumulator = %v, oracle %v", p.name, params, pass, got, want)
					}
				}
			}
		}
	})
}

var sinkTime float64

// TestAlltoallvAccumulatorZeroAlloc: a warm accumulator's Reset, Add and
// Time allocate nothing, on every network.
func TestAlltoallvAccumulatorZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	g := geom.NewGrid(16, 16)
	msgs := randomMessages(rand.New(rand.NewSource(51)), g.Size(), 300)
	for _, p := range pricedNets(t, g, DefaultTorusParams()) {
		acc := p.net.NewAlltoallv()
		fold := func() {
			acc.Reset()
			for _, m := range msgs {
				acc.Add(m, p.net.Hops(m.From, m.To))
			}
			sinkTime = acc.Time()
		}
		fold()
		if allocs := testing.AllocsPerRun(20, fold); allocs != 0 {
			t.Errorf("%s: a warm accumulator allocates %v times per exchange, want 0", p.name, allocs)
		}
	}
}
