package mpi

import (
	"sync"
	"sync/atomic"
)

// barrier is a reusable n-party sense-reversing rendezvous. Arrival is a
// single atomic increment; the last arriver runs the optional hook (the
// collectives combine clocks and price the exchange in it) and then releases
// every waiter through its private one-token channel. Compared to the
// two-phase mutex+cond barrier this replaces, there is no lock convoy on a
// shared mutex and no thundering-herd Broadcast: each generation costs one
// contended atomic plus n-1 buffered channel operations, and allocates
// nothing.
//
// Each member's call count doubles as its local sense. The token channels
// make the sense implicit — a member can only hold one unconsumed token,
// so generations cannot run into each other — while the count's parity
// (phase) tells single-rendezvous collectives which of two result slots
// the current generation owns.
type barrier struct {
	n       int
	arrived atomic.Int32
	chans   []chan struct{}
	senses  []counter
	once    sync.Once
	dead    atomic.Bool
}

// counter is a per-member call count on its own cache line: members bump
// their slot on every collective, and padding keeps the slots from false
// sharing.
type counter struct {
	n uint64
	_ [56]byte
}

// newBarrier builds an n-member barrier. Its token channels come from
// spare, as many as it holds (taken from its end), the rest are made; the
// shortened spare list is returned.
func newBarrier(n int, spare []chan struct{}) (*barrier, []chan struct{}) {
	b := &barrier{
		n:      n,
		chans:  make([]chan struct{}, n),
		senses: make([]counter, n),
	}
	k := copy(b.chans, spare[max(0, len(spare)-n):])
	clear(spare[len(spare)-k:])
	for i := k; i < n; i++ {
		b.chans[i] = make(chan struct{}, 1)
	}
	return b, spare[:len(spare)-k]
}

// idle reports whether the barrier can hand its token channels to a new
// one: not poisoned, and no token left unconsumed. That holds once every
// member has returned from its last rendezvous.
func (b *barrier) idle() bool {
	if b.dead.Load() {
		return false
	}
	for _, ch := range b.chans {
		if len(ch) != 0 {
			return false
		}
	}
	return true
}

// phase returns the parity of member me's next rendezvous. Collectives
// that publish a result across the rendezvous double-buffer it by this
// parity: a member may still be reading its slot while another member has
// entered the next generation, but never while anyone is two generations
// ahead (that would require this member to have passed a rendezvous in
// between).
func (b *barrier) phase(me int) int { return int(b.senses[me].n & 1) }

// await blocks until all n members arrive. hook runs exactly once per
// generation, in the last arriver, while every member is inside the
// rendezvous.
func (b *barrier) await(me int, hook func()) {
	if b.dead.Load() {
		panic(panicPoisoned)
	}
	b.senses[me].n++
	if int(b.arrived.Add(1)) == b.n {
		if hook != nil {
			hook()
		}
		// Reset before any token send: a released waiter may re-arrive
		// immediately and must observe a zeroed count.
		b.arrived.Store(0)
		for i := range b.chans {
			if i == me {
				continue
			}
			select {
			case b.chans[i] <- struct{}{}:
			default:
				// Full means poison already buffered a token for i (the
				// normal protocol never leaves one unconsumed), so i wakes
				// and panics without ours.
			}
		}
		return
	}
	// A plain receive, not a select over a separate poison channel: poison
	// buffers a token into every member channel, so a parked waiter always
	// wakes, and the dead re-check below turns a poison wake into a panic.
	<-b.chans[me]
	if b.dead.Load() {
		panic(panicPoisoned)
	}
}

// poison permanently breaks the barrier, waking every current and future
// waiter with panicPoisoned so a failed world unwinds instead of
// deadlocking. Members not yet parked are covered too: the token stays
// buffered until they park, and the entry dead-check catches members that
// arrive later still.
func (b *barrier) poison() {
	b.once.Do(func() {
		b.dead.Store(true)
		for i := range b.chans {
			select {
			case b.chans[i] <- struct{}{}:
			default:
			}
		}
	})
}
