package mpi

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// envelope is one point-to-point message slot of a peerQueue. A slot
// keeps its transport buffer after the message is consumed, so the next
// send on the same (sender, receiver) pair copies into it: steady-state
// traffic allocates nothing and needs no shared pool.
type envelope struct {
	data    []float64
	tag     int
	arrival float64 // modelled arrival time: sender clock + message time
	dead    bool    // consumed (tombstone, or a free slot past the tail)
}

// peerQueue is the FIFO of in-flight messages from one sender, a deque
// over a reusable backing slice. Receives may match tags out of order;
// entries consumed from the middle become tombstones that the head index
// skips over, and the backing array is compacted in place when the tail
// reaches its end, so steady-state traffic never reallocates. Payloads are
// copied in and out under the queue's lock, which is what lets a slot's
// buffer be reused as soon as its message is consumed.
type peerQueue struct {
	mu   sync.Mutex
	buf  []envelope
	head int
}

func (q *peerQueue) put(tag int, data []float64, arrival float64) {
	q.mu.Lock()
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		// Rotate rather than copy: the consumed slots move behind the live
		// ones with their buffers, ready for the appends below.
		n := len(q.buf) - q.head
		for i := 0; i < n; i++ {
			q.buf[i], q.buf[q.head+i] = q.buf[q.head+i], q.buf[i]
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	if len(q.buf) < cap(q.buf) {
		q.buf = q.buf[:len(q.buf)+1] // a slot that keeps its old buffer
	} else {
		q.buf = append(q.buf, envelope{})
	}
	e := &q.buf[len(q.buf)-1]
	if cap(e.data) < len(data) {
		// Power-of-two sizes: a slot that carries messages of varying
		// lengths reallocates a handful of times, not whenever one is longer
		// than the last.
		e.data = make([]float64, 0, 1<<bits.Len(uint(len(data)-1)))
	}
	e.data = append(e.data[:0], data...)
	e.tag, e.arrival, e.dead = tag, arrival, false
	q.mu.Unlock()
}

// take removes the oldest live message with the given tag, copying its
// payload into dst (reused from length zero, grown only if too small), or
// reports ok=false when none is queued.
func (q *peerQueue) take(tag int, dst []float64) (out []float64, arrival float64, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := q.head; i < len(q.buf); i++ {
		e := &q.buf[i]
		if e.dead {
			if i == q.head {
				q.head++
			}
			continue
		}
		if e.tag != tag {
			continue
		}
		out = append(dst[:0], e.data...)
		e.dead = true
		if i == q.head {
			q.head++
		}
		if q.head == len(q.buf) {
			q.buf = q.buf[:0]
			q.head = 0
		}
		return out, e.arrival, true
	}
	return dst, 0, false
}

// mailbox is a rank's receive side: one queue per peer, replacing the old
// map[from,tag] keyed by every message with per-sender ring deques sized to
// the world. Only the owning rank ever receives, so instead of a condition
// variable that Broadcast every put to all sleepers, producers wake the
// single consumer through a one-slot signal channel, and only the producer
// the consumer is actually parked on does: waiting holds that peer's rank
// plus one (zero while the consumer runs), so a rank waiting on its east
// neighbour is not woken by the other seven.
type mailbox struct {
	peers    []peerQueue
	waiting  atomic.Int32
	signal   chan struct{}
	poisoned atomic.Bool
}

func (b *mailbox) init(n int) {
	b.peers = make([]peerQueue, n)
	b.signal = make(chan struct{}, 1)
}

func (b *mailbox) put(from, tag int, data []float64, arrival float64) {
	b.peers[from].put(tag, data, arrival)
	if b.waiting.Load() == int32(from)+1 {
		b.wake()
	}
}

// wake leaves one token in the signal channel; a full channel means the
// consumer already has a pending wakeup.
func (b *mailbox) wake() {
	select {
	case b.signal <- struct{}{}:
	default:
	}
}

// get dequeues the next (from, tag) message into dst, blocking until it
// arrives, and returns the filled buffer and the message's modelled
// arrival time. A positive timeout bounds the wait (fault injection
// only): when it expires with no message, get returns ok=false instead of
// blocking forever on a dropped message.
//
// Lost wakeups are impossible: the consumer publishes the peer it waits on
// and then re-scans before parking, while that peer's producers enqueue
// and then check the flag — sequential consistency of the atomics means at
// least one side sees the other. A token left over from a wait that the
// re-scan satisfied only costs a later wait one spurious pass of the loop.
func (b *mailbox) get(from, tag int, dst []float64, timeout time.Duration) ([]float64, float64, bool) {
	q := &b.peers[from]
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	for {
		if b.poisoned.Load() {
			panic(panicPoisoned)
		}
		if out, at, ok := q.take(tag, dst); ok {
			return out, at, true
		}
		b.waiting.Store(int32(from) + 1)
		if out, at, ok := q.take(tag, dst); ok {
			b.waiting.Store(0)
			return out, at, true
		}
		if expired == nil {
			// A plain receive, as in barrier.await: poison buffers a token
			// too, and the poisoned check above turns that wake into a panic.
			<-b.signal
		} else {
			select {
			case <-b.signal:
			case <-expired:
				b.waiting.Store(0)
				return q.take(tag, dst)
			}
		}
		b.waiting.Store(0)
	}
}

// await blocks until seq reaches want, published by rank from, on the
// same signal and with the same publish-then-recheck protocol as get: the
// waiter publishes the peer it waits on and re-reads the counter before
// parking, while the peer raises the counter and then checks the flag
// (Rank.Notify). It reports false when a positive timeout expires first.
func (b *mailbox) await(from int, seq *atomic.Int64, want int64, timeout time.Duration) bool {
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	for {
		if b.poisoned.Load() {
			panic(panicPoisoned)
		}
		if seq.Load() >= want {
			return true
		}
		b.waiting.Store(int32(from) + 1)
		if seq.Load() >= want {
			b.waiting.Store(0)
			return true
		}
		if expired == nil {
			<-b.signal
		} else {
			select {
			case <-b.signal:
			case <-expired:
				b.waiting.Store(0)
				return seq.Load() >= want
			}
		}
		b.waiting.Store(0)
	}
}

// poison permanently breaks the mailbox: a consumer parked now, or parking
// later, wakes on the buffered token and panics with panicPoisoned.
func (b *mailbox) poison() {
	b.poisoned.Store(true)
	b.wake()
}
