package mpi

import "fmt"

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

// Send posts a message to another world rank. The payload is copied into
// the transport buffer of a slot in the receiver's queue for this sender
// (the buffer a consumed message left there), so the caller may reuse its
// buffer immediately. The sender is charged the configured send overhead;
// transit time is charged to the receiver. Under a fault plan the message
// may be silently dropped (never delivered) or have extra virtual transit
// time injected.
func (r *Rank) Send(to, tag int, data []float64) {
	if to < 0 || to >= r.world.n {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", to))
	}
	var extra float64
	if plan := r.world.faults.Load(); plan != nil {
		drop, delay := plan.MessageFault(r.id, to, tag)
		if drop {
			r.clock += r.world.cfg.SendOverhead
			return
		}
		extra = delay
	}
	arrival := r.clock + (r.world.pairTime(r.id, to, 8*len(data)) + extra)
	r.world.boxes[to].put(r.id, tag, data, arrival)
	r.clock += r.world.cfg.SendOverhead
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
	if from < 0 || from >= r.world.n {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d", from))
	}
	out, arrival, ok := r.world.boxes[r.id].get(from, tag, buf, r.world.faults.Load().RecvTimeout())
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d receive from rank %d tag %d timed out (message lost?)", r.id, from, tag))
	}
	if arrival > r.clock {
		r.clock = arrival
	}
	return out
}
