package topology

import (
	"fmt"
	"math/rand"
	"testing"

	"nestdiff/internal/geom"
)

// The three oracles below are the AlltoallvTime loops the accumulators
// replaced, kept verbatim: each network's fold must match its oracle
// exactly.

// slowestPairOracle is Torus3D.AlltoallvTime before the accumulators.
func slowestPairOracle(t *Torus3D, msgs []Message) float64 {
	var worst float64
	for _, m := range msgs {
		if m.Bytes == 0 || m.From == m.To {
			continue
		}
		if dt := t.PairTime(m.Bytes, t.Hops(m.From, m.To)); dt > worst {
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
		if h := t.Hops(m.From, m.To); h > maxHops {
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
