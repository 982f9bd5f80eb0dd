package topology

import "fmt"

// Switched models a flat switched cluster like the paper's "fist" machine:
// multi-core nodes connected through a central switch. There is no
// mesh/torus locality — any two nodes are equidistant — so the diffusion
// strategy's gains come only from sender/receiver overlap, not from hop
// reduction (§V-D observes 10% on fist versus 25% on the torus).
//
// Per §IV-C1, on non-mesh networks the Alltoallv time is modelled by
// summing, for each sender, the times of all its outgoing messages, and
// taking the slowest sender.
type Switched struct {
	size     int
	perNode  int
	params   LinkParams
	nodeHops int // hops charged for an inter-node message
}

var _ Network = (*Switched)(nil)

// NewSwitched builds a switched network of size ranks packed sequentially
// onto nodes of perNode cores each ("fist": 8 cores per node).
func NewSwitched(size, perNode int, params LinkParams) (*Switched, error) {
	if size <= 0 {
		return nil, fmt.Errorf("topology: invalid size %d", size)
	}
	if perNode <= 0 {
		return nil, fmt.Errorf("topology: invalid cores per node %d", perNode)
	}
	return &Switched{size: size, perNode: perNode, params: params, nodeHops: 2}, nil
}

// Name implements Network.
func (s *Switched) Name() string { return "switched" }

// Size implements Network.
func (s *Switched) Size() int { return s.size }

// Node returns the node index hosting a rank.
func (s *Switched) Node(rank int) int {
	validateRank(s.size, rank)
	return rank / s.perNode
}

// Hops implements Network: 0 within a rank, 1 within a node (shared
// memory), and a fixed up-and-down-the-switch cost between nodes.
func (s *Switched) Hops(a, b int) int {
	validateRank(s.size, a)
	validateRank(s.size, b)
	switch {
	case a == b:
		return 0
	case s.Node(a) == s.Node(b):
		return 1
	default:
		return s.nodeHops
	}
}

// PairTime implements Network.
func (s *Switched) PairTime(bytes, hops int) float64 {
	return s.params.PairTime(bytes, hops)
}

// AlltoallvTime implements Network using the per-sender serialization
// model for switched fabrics.
func (s *Switched) AlltoallvTime(msgs []Message) float64 {
	return alltoallvTime(s, s.NewAlltoallv(), msgs)
}

// NewAlltoallv implements Network with the per-sender sum rule.
func (s *Switched) NewAlltoallv() Alltoallv {
	return &senderSums{params: s.params, sums: make([]float64, s.size)}
}

// senderSums is the aggregation rule on a switched fabric (§IV-C1): each
// sender serializes its messages, and the exchange takes as long as its
// slowest sender.
type senderSums struct {
	params  LinkParams
	sums    []float64 // seconds per sending rank
	senders []int     // ranks whose sum is non-zero: what Time and Reset visit
}

func (a *senderSums) Add(m Message, hops int) {
	if !m.crosses() {
		return
	}
	if a.sums[m.From] == 0 {
		a.senders = append(a.senders, m.From)
	}
	a.sums[m.From] += a.params.PairTime(m.Bytes, hops)
}

func (a *senderSums) Time() float64 {
	var worst float64
	for _, r := range a.senders {
		if a.sums[r] > worst {
			worst = a.sums[r]
		}
	}
	return worst
}

func (a *senderSums) Reset() {
	for _, r := range a.senders {
		a.sums[r] = 0
	}
	a.senders = a.senders[:0]
}
