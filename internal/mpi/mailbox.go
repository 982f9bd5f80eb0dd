package mpi

import (
	"sync"
	"sync/atomic"
	"time"
)

// envelope is one in-flight point-to-point message.
type envelope struct {
	pb       *payloadBuf
	tag      int
	sentAt   float64 // sender's virtual clock when the send was posted
	pairTime float64 // modelled network time for this message
	dead     bool    // tombstone: already consumed by an out-of-order match
}

// payloadBuf boxes a pooled payload buffer. Pooling the box (rather than
// the bare slice) means recycling it costs no allocation: sync.Pool stores
// interface values, and a *payloadBuf pointer fits in one without boxing a
// slice header on every Put.
type payloadBuf struct {
	data []float64
}

// peerQueue is the FIFO of in-flight messages from one sender, a deque
// over a reusable backing slice. Receives may match tags out of order;
// entries consumed from the middle become tombstones that the head index
// skips over, and the backing array is compacted in place when the tail
// reaches its end, so steady-state traffic never reallocates.
type peerQueue struct {
	mu   sync.Mutex
	buf  []envelope
	head int
}

func (q *peerQueue) put(tag int, e envelope) {
	e.tag = tag
	q.mu.Lock()
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, e)
	q.mu.Unlock()
}

// take removes and returns the oldest live message with the given tag, or
// ok=false when none is queued.
func (q *peerQueue) take(tag int) (envelope, bool) {
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
		out := *e
		e.dead = true
		e.pb = nil
		if i == q.head {
			q.head++
		}
		if q.head == len(q.buf) {
			q.buf = q.buf[:0]
			q.head = 0
		}
		return out, true
	}
	return envelope{}, false
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

func (b *mailbox) put(from, tag int, e envelope) {
	b.peers[from].put(tag, e)
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

// get dequeues the next (from, tag) message, blocking until it arrives.
// A positive timeout bounds the wait (fault injection only): when it
// expires with no message, get returns ok=false instead of blocking
// forever on a dropped message.
//
// Lost wakeups are impossible: the consumer publishes the peer it waits on
// and then re-scans before parking, while that peer's producers enqueue
// and then check the flag — sequential consistency of the atomics means at
// least one side sees the other. A token left over from a wait that the
// re-scan satisfied only costs a later wait one spurious pass of the loop.
func (b *mailbox) get(from, tag int, timeout time.Duration) (envelope, bool) {
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
		if e, ok := q.take(tag); ok {
			return e, true
		}
		b.waiting.Store(int32(from) + 1)
		if e, ok := q.take(tag); ok {
			b.waiting.Store(0)
			return e, true
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
				return q.take(tag)
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
