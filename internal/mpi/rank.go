package mpi

import (
	"fmt"
	"sync/atomic"
)

// Rank is one process of the world, valid only inside the function passed
// to World.Run and only on its own goroutine.
type Rank struct {
	id    int
	world *World
	clock float64
}

// ID returns the world rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.world.n }

// Clock returns the rank's virtual time in seconds.
func (r *Rank) Clock() float64 { return r.clock }

// Compute advances the rank's virtual clock by the modelled duration of a
// local computation. Negative durations are a programming error.
func (r *Rank) Compute(seconds float64) {
	if seconds < 0 {
		panic(fmt.Sprintf("mpi: negative compute time %g", seconds))
	}
	r.clock += seconds
}

// LinkTime returns the modelled transit time of a message of the given
// size from this rank to rank to, without its fault-injected delay: the
// cost Send charges the pair. It is fixed for the world, so a caller that
// moves the same strip every step can price it once.
func (r *Rank) LinkTime(to, bytes int) float64 {
	r.checkPeer("send to", to)
	return r.world.pairTime(r.id, to, bytes)
}

// Post does a send's clock arithmetic for a transfer to rank to that takes
// transit seconds (LinkTime) and travels outside the mailbox: the receiver
// reads the data where the sender left it and completes the transfer with
// Arrive. It returns the modelled arrival time, and dropped when a fault
// plan loses the transfer; either way the sender is charged the configured
// send overhead. Under a fault plan each Post is one message of the
// (rank, to, tag) stream, so message rules count it as they count a Send.
func (r *Rank) Post(to, tag int, transit float64) (arrival float64, dropped bool) {
	r.checkPeer("send to", to)
	var extra float64
	if plan := r.world.faults.Load(); plan != nil {
		dropped, extra = plan.MessageFault(r.id, to, tag)
	}
	arrival = r.clock + (transit + extra)
	r.clock += r.world.cfg.SendOverhead
	return arrival, dropped
}

// Send posts a message to another world rank: Post's arithmetic, and the
// payload delivered to the receiver's mailbox. The payload is copied into
// the transport buffer of a slot in the receiver's queue for this sender
// (the buffer a consumed message left there), so the caller may reuse its
// buffer immediately. The sender is charged the configured send overhead;
// transit time is charged to the receiver. Under a fault plan the message
// may be silently dropped (never delivered) or have extra virtual transit
// time injected.
func (r *Rank) Send(to, tag int, data []float64) {
	arrival, dropped := r.Post(to, tag, r.LinkTime(to, 8*len(data)))
	if !dropped {
		r.world.boxes[to].put(r.id, tag, data, arrival)
	}
}

// RecvInto blocks until a message with the given source and tag arrives,
// copies its payload into buf (reused from length zero, grown only if too
// small) and leaves the transport buffer in its slot for the pair's next
// send, so steady-state point-to-point traffic allocates nothing. It
// returns the filled buffer. The rank's clock advances to the message's
// modelled arrival time if that is later.
// Under a fault plan with a receive timeout, a receive that outlives the
// bound (a dropped message) panics the rank; World.Run recovers it and
// reports the failure.
func (r *Rank) RecvInto(from, tag int, buf []float64) []float64 {
	r.checkPeer("recv from", from)
	out, arrival, ok := r.world.boxes[r.id].get(from, tag, buf, r.world.faults.Load().RecvTimeout())
	r.Arrive(from, tag, arrival, !ok)
	return out
}

// Arrive completes the receive side of a transfer that rank from posted
// with Post for this rank, or of a received message: the rank's clock
// advances to the arrival time if that is later. A dropped transfer fails
// the rank with the error of a receive that timed out on a lost message;
// World.Run recovers it and reports the failure.
func (r *Rank) Arrive(from, tag int, arrival float64, dropped bool) {
	if dropped {
		panic(fmt.Sprintf("mpi: rank %d receive from rank %d tag %d timed out (message lost?)", r.id, from, tag))
	}
	if arrival > r.clock {
		r.clock = arrival
	}
}

// Await blocks until rank from has published a sequence number of at
// least want in seq, a counter rank from raises and then signals with
// Notify: the wait of a one-sided read, for data rank from leaves in place. It parks on
// the rank's mailbox signal, so a failed world wakes it with the poison
// that wakes a blocked receive, and a fault plan's receive timeout bounds
// it like one.
func (r *Rank) Await(from int, seq *atomic.Int64, want int64) {
	r.checkPeer("recv from", from)
	if seq.Load() >= want {
		return
	}
	if !r.world.boxes[r.id].await(from, seq, want, r.world.faults.Load().RecvTimeout()) {
		panic(fmt.Sprintf("mpi: rank %d wait on rank %d for sequence %d timed out", r.id, from, want))
	}
}

// Notify wakes rank to if it is parked in Await on this rank; call it
// after raising the counter rank to waits on.
func (r *Rank) Notify(to int) {
	r.checkPeer("notify", to)
	b := &r.world.boxes[to]
	if b.waiting.Load() == int32(r.id)+1 {
		b.wake()
	}
}

// checkPeer panics on a peer outside the world.
func (r *Rank) checkPeer(op string, peer int) {
	if peer < 0 || peer >= r.world.n {
		panic(fmt.Sprintf("mpi: %s invalid rank %d", op, peer))
	}
}
