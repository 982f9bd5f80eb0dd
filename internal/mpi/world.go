// Package mpi is an in-process stand-in for the MPI runtime the paper's
// framework is built on. Ranks execute concurrently as goroutines and
// exchange real data (point-to-point sends and the collectives the paper
// uses: Barrier, Gatherv, Alltoallv), while a per-rank virtual
// clock models time on a pluggable interconnect (internal/topology).
//
// The virtual clock is what makes the reproduction possible without a Blue
// Gene/L: computation advances a rank's clock by a modelled amount, a
// receive completes at max(receiver clock, sender clock + message time),
// and collectives synchronize all participating clocks to the maximum plus
// the modelled collective time. Everything is deterministic — including
// the optional link-contention term — so experiments reproduce exactly.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nestdiff/internal/faults"
	"nestdiff/internal/topology"
)

// Config tunes the world.
type Config struct {
	// Net models communication costs. A nil Net makes all communication
	// free (useful for pure-algorithm tests).
	Net topology.Network
	// Faults optionally injects deterministic faults (rank crashes,
	// message delay/drop) into this world. Nil disables injection at the
	// cost of a single pointer check per hook.
	Faults *faults.Plan
	// ContentionBytesPerSec, when positive, adds a bandwidth-sharing term
	// to Alltoallv: total hop-bytes of the exchange divided by this
	// aggregate capacity. It models the link contention that the direct
	// per-pair model of §IV-C1 ignores, so that the dynamic strategy's
	// *predictions* (which use the per-pair model) are imperfect, as in
	// the paper (10 of 12 decisions correct).
	ContentionBytesPerSec float64
	// SendOverhead is the virtual cost charged to a sender per message.
	SendOverhead float64
}

// World owns the ranks and shared collective state.
type World struct {
	n      int
	cfg    Config
	all    []int // every rank, ascending: Run's dispatch set
	boxes  []mailbox
	faults atomic.Pointer[faults.Plan]

	// payloads recycles point-to-point transport buffers: Send draws from
	// it, RecvInto returns to it, so steady-state traffic allocates
	// nothing.
	payloads sync.Pool

	// The all-ranks communicator, built by the first All.
	allOnce sync.Once
	allComm *Comm
	allErr  error

	mu       sync.Mutex
	failures []error
	comms    []*Comm // live communicators: the poison list
	poisoned bool
}

func (w *World) getPayload() *payloadBuf {
	if pb, ok := w.payloads.Get().(*payloadBuf); ok {
		return pb
	}
	return &payloadBuf{}
}

func (w *World) putPayload(pb *payloadBuf) {
	pb.data = pb.data[:0]
	w.payloads.Put(pb)
}

// NewWorld creates a world of n ranks.
func NewWorld(n int, cfg Config) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: invalid world size %d", n)
	}
	if cfg.Net != nil && cfg.Net.Size() < n {
		return nil, fmt.Errorf("mpi: network has %d ranks, world needs %d", cfg.Net.Size(), n)
	}
	w := &World{
		n:     n,
		cfg:   cfg,
		all:   make([]int, n),
		boxes: make([]mailbox, n),
	}
	for i := range w.boxes {
		w.all[i] = i
		w.boxes[i].init(n)
	}
	if cfg.Faults != nil {
		w.faults.Store(cfg.Faults)
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// SetFaults installs (or, with nil, removes) a fault-injection plan.
// Call it between Run invocations, not while ranks are executing.
func (w *World) SetFaults(p *faults.Plan) { w.faults.Store(p) }

// Run executes fn once per rank, concurrently, and returns after every
// rank finishes. A panic in any rank is captured, the world is poisoned so
// blocked ranks fail fast instead of deadlocking, and the first panic is
// returned as an error.
func (w *World) Run(fn func(r *Rank)) error { return w.RunOn(w.all, fn) }

// RunOn is Run over a subset of the world: fn executes once on each of
// the given ranks (strictly ascending world rank numbers) and no
// goroutine is spawned for any other rank — a step in which 40 of 256
// ranks own work dispatches 40. Under a fault plan the crash point of
// every rank left out is still evaluated, inline, so an injected crash of
// an idle rank fails the same dispatch it would have failed under Run. A
// world that has already failed runs nothing and reports its first
// failure.
func (w *World) RunOn(ranks []int, fn func(r *Rank)) error {
	for i, id := range ranks {
		if id < 0 || id >= w.n || (i > 0 && id <= ranks[i-1]) {
			return fmt.Errorf("mpi: RunOn ranks must be ascending in [0,%d), got %d at %d", w.n, id, i)
		}
	}
	plan := w.faults.Load()
	if plan != nil && len(ranks) < w.n {
		next := 0
		for id := 0; id < w.n; id++ {
			if next < len(ranks) && ranks[next] == id {
				next++
				continue
			}
			w.crashPoint(plan, id)
		}
	}
	if err := w.failure(); err != nil {
		return err
	}
	// One Rank array per dispatch, not one Rank per goroutine.
	rs := make([]Rank, len(ranks))
	var wg sync.WaitGroup
	wg.Add(len(ranks))
	for i, id := range ranks {
		rs[i] = Rank{id: id, world: w}
		go w.runRank(&rs[i], plan, fn, &wg)
	}
	wg.Wait()
	return w.failure()
}

// runRank is one rank's goroutine: the injected crash point, then fn,
// with any panic turned into a world failure.
func (w *World) runRank(r *Rank, plan *faults.Plan, fn func(r *Rank), wg *sync.WaitGroup) {
	defer wg.Done()
	defer w.recoverRank(r.id)
	plan.CrashPoint(r.id) // may panic: an injected rank crash
	fn(r)
}

// crashPoint evaluates the fault plan's crash point for a rank RunOn does
// not spawn.
func (w *World) crashPoint(plan *faults.Plan, id int) {
	defer w.recoverRank(id)
	plan.CrashPoint(id)
}

// recoverRank, deferred, records a rank's panic as the world's failure.
func (w *World) recoverRank(id int) {
	if p := recover(); p != nil {
		w.fail(fmt.Errorf("mpi: rank %d panicked: %v", id, p))
	}
}

// failure returns the first recorded rank failure, nil on a healthy world.
func (w *World) failure() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.failures) > 0 {
		return w.failures[0]
	}
	return nil
}

func (w *World) fail(err error) {
	w.mu.Lock()
	w.failures = append(w.failures, err)
	w.poisoned = true
	comms := append([]*Comm(nil), w.comms...)
	w.mu.Unlock()
	for _, c := range comms {
		c.bar.poison()
	}
	for i := range w.boxes {
		w.boxes[i].poison()
	}
}

// register adds a communicator to the poison list, poisoning it right away
// if the world already failed.
func (w *World) register(c *Comm) {
	w.mu.Lock()
	w.comms = append(w.comms, c)
	dead := w.poisoned
	w.mu.Unlock()
	if dead {
		c.bar.poison()
	}
}

func (w *World) pairTime(from, to, bytes int) float64 {
	if w.cfg.Net == nil || from == to {
		return 0
	}
	return w.cfg.Net.PairTime(bytes, w.cfg.Net.Hops(from, to))
}

// panicPoisoned is the sentinel raised by blocked operations after a rank
// failure elsewhere; Run's recover reports it.
var panicPoisoned = fmt.Errorf("mpi: world poisoned by a failed rank")
