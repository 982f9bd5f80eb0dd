// Package topology models the interconnects of the paper's two testbeds:
// a Blue Gene/L-style 3D torus and an Infiniband switched cluster ("fist").
//
// The paper's redistribution analysis needs exactly three things from the
// network: a hop metric between ranks (for hop-bytes, §V-E), a per-message
// cost (for the Alltoallv performance model, §IV-C1) and the aggregation
// rule for Alltoallv — maximum over sender/receiver pairs on mesh/torus
// networks (direct algorithm [11]) versus per-sender sums on switched
// networks. All three are reproduced analytically here; each network's
// aggregation rule is written once, as the Alltoallv accumulator its
// NewAlltoallv returns, and AlltoallvTime is a fold over it.
package topology

import "fmt"

// Message is one point-to-point transfer inside a collective.
type Message struct {
	From, To int // ranks
	Bytes    int // never negative
}

// crosses reports whether m costs anything: a message that moves no bytes
// or stays on its rank is free under every aggregation rule.
func (m Message) crosses() bool { return m.Bytes != 0 && m.From != m.To }

// Alltoallv folds the messages of one exchange under a network's
// aggregation rule. The caller passes each message's hop count, so a caller
// that also needs the hops (for hop-bytes) routes every message once.
// Free messages (no bytes, or to the sender itself) are ignored. An
// accumulator is reused across exchanges through Reset and is not safe for
// concurrent use.
type Alltoallv interface {
	// Add folds one message that travels hops links: Hops(m.From, m.To)
	// on the network that built the accumulator.
	Add(m Message, hops int)
	// Time returns the modelled seconds of the exchange made of the
	// messages added since the last Reset.
	Time() float64
	// Reset empties the accumulator and keeps its storage.
	Reset()
}

// Network is the modelled interconnect under a set of ranks. Rank numbering
// matches the 2D process grid (row-major); the network decides where each
// rank physically lives.
type Network interface {
	// Name identifies the model ("torus3d", "switched").
	Name() string
	// Size returns the number of ranks.
	Size() int
	// Hops returns the number of network links on the route between two
	// ranks. Hops(a, a) is 0.
	Hops(a, b int) int
	// PairTime returns the modelled seconds for one message of the given
	// size travelling the given number of hops.
	PairTime(bytes, hops int) float64
	// AlltoallvTime returns the modelled seconds for the whole exchange,
	// using the network-appropriate aggregation rule.
	AlltoallvTime(msgs []Message) float64
	// NewAlltoallv returns an empty accumulator of the network's
	// aggregation rule, the one AlltoallvTime folds its messages into.
	NewAlltoallv() Alltoallv
}

// alltoallvTime folds msgs into acc, a fresh accumulator of net: the one
// body of every network's AlltoallvTime.
func alltoallvTime(net Network, acc Alltoallv, msgs []Message) float64 {
	for _, m := range msgs {
		if m.crosses() {
			acc.Add(m, net.Hops(m.From, m.To))
		}
	}
	return acc.Time()
}

// LinkParams are the cost-model constants of a network. The defaults are
// loosely calibrated to the respective hardware generation; only ratios
// matter for the reproduction.
type LinkParams struct {
	// Latency is the fixed per-message overhead in seconds.
	Latency float64
	// BytesPerSec is the per-link bandwidth.
	BytesPerSec float64
	// HopLatency is the added routing delay per traversed link in seconds.
	HopLatency float64
	// HopBytesPerSec, when non-zero, adds bytes/HopBytesPerSec per hop to a
	// message, modelling store-and-forward-like per-hop serialization on
	// congested torus links.
	HopBytesPerSec float64
}

// PairTime implements the shared per-message model
//
//	t = Latency + hops·HopLatency + bytes/BytesPerSec + hops·bytes/HopBytesPerSec
//
// with the last term omitted when HopBytesPerSec is zero.
func (p LinkParams) PairTime(bytes, hops int) float64 {
	t := p.Latency + float64(hops)*p.HopLatency + float64(bytes)/p.BytesPerSec
	if p.HopBytesPerSec > 0 {
		t += float64(hops) * float64(bytes) / p.HopBytesPerSec
	}
	return t
}

// DefaultTorusParams returns link constants resembling Blue Gene/L
// (175 MB/s links, microsecond-scale latency).
func DefaultTorusParams() LinkParams {
	return LinkParams{
		Latency:        3e-6,
		BytesPerSec:    175e6,
		HopLatency:     1e-7,
		HopBytesPerSec: 700e6,
	}
}

// DefaultSwitchedParams returns link constants resembling a DDR Infiniband
// fabric (1.4 GB/s, low latency, hop count largely irrelevant).
func DefaultSwitchedParams() LinkParams {
	return LinkParams{
		Latency:     2e-6,
		BytesPerSec: 1.4e9,
		HopLatency:  5e-7,
	}
}

func validateRank(n int, rank int) {
	if rank < 0 || rank >= n {
		panic(fmt.Sprintf("topology: rank %d out of range [0,%d)", rank, n))
	}
}
