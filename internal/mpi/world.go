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
	"errors"
	"fmt"
	"runtime"
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

	// dispatch serializes RunOn and Close: it is held for a whole dispatch,
	// which owns ranks, wg and the sends to the parked workers.
	dispatch sync.Mutex
	ranks    []Rank // one per world rank, reset by each dispatch that runs it
	wg       sync.WaitGroup
	workers  *workerSet

	// The all-ranks communicator, built by the first All.
	allOnce sync.Once
	allComm *Comm
	allErr  error

	mu       sync.Mutex
	failures []error
	comms    []*Comm // live communicators: the poison list
	poisoned bool
	// spareChans are the barrier token channels of freed communicators,
	// each empty, for NewComm to reuse.
	spareChans []chan struct{}
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
		n:       n,
		cfg:     cfg,
		all:     make([]int, n),
		boxes:   make([]mailbox, n),
		ranks:   make([]Rank, n),
		workers: &workerSet{tasks: make([]chan rankTask, n), live: new(sync.WaitGroup)},
	}
	for i := range w.boxes {
		w.all[i] = i
		w.boxes[i].init(n)
		w.ranks[i] = Rank{id: i, world: w}
	}
	// Only the world references its worker set (the workers hold just
	// their channels), so a world dropped without Close still releases its
	// workers once it is collected. The finalizer cannot sit on the World:
	// World and its communicators reference each other, and a finalizer on
	// an object in a cycle never runs.
	runtime.SetFinalizer(w.workers, (*workerSet).close)
	if cfg.Faults != nil {
		w.faults.Store(cfg.Faults)
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// Clock returns rank id's virtual time at the end of the last dispatch that
// ran it (zero before its first). Call it between dispatches, not while
// ranks are executing.
func (w *World) Clock(id int) float64 { return w.ranks[id].clock }

// SetFaults installs (or, with nil, removes) a fault-injection plan.
// Call it between Run invocations, not while ranks are executing.
func (w *World) SetFaults(p *faults.Plan) { w.faults.Store(p) }

// Run executes fn once per rank, concurrently, and returns after every
// rank finishes. A panic in any rank is captured, the world is poisoned so
// blocked ranks fail fast instead of deadlocking, and the first panic is
// returned as an error.
func (w *World) Run(fn func(r *Rank)) error { return w.RunOn(w.all, fn) }

// RunOn is Run over a subset of the world: fn executes once on each of
// the given ranks (strictly ascending world rank numbers) and no other
// rank is woken — a step in which 40 of 256 ranks own work dispatches 40.
// Each listed rank runs fn on the world's parked worker for that rank,
// started by the rank's first dispatch and reused by every later one, so
// a steady dispatch spawns no goroutine and allocates nothing. Under a
// fault plan the crash point of every rank left out is still evaluated,
// inline, so an injected crash of an idle rank fails the same dispatch it
// would have failed under Run. A world that has already failed runs
// nothing and reports its first failure. Dispatches on one world run one
// at a time, and a dispatch after Close returns an error.
func (w *World) RunOn(ranks []int, fn func(r *Rank)) error {
	for i, id := range ranks {
		if id < 0 || id >= w.n || (i > 0 && id <= ranks[i-1]) {
			return fmt.Errorf("mpi: RunOn ranks must be ascending in [0,%d), got %d at %d", w.n, id, i)
		}
	}
	w.dispatch.Lock()
	defer w.dispatch.Unlock()
	if err := w.workers.start(ranks); err != nil {
		return err
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
	w.wg.Add(len(ranks))
	for _, id := range ranks {
		r := &w.ranks[id]
		r.clock = 0
		// Never blocks: the worker took its previous task before that
		// dispatch's Wait returned.
		w.workers.tasks[id] <- rankTask{r: r, plan: plan, fn: fn, wg: &w.wg}
	}
	w.wg.Wait()
	return w.failure()
}

// Close stops the world's parked rank workers and returns once they have
// exited. It waits for a dispatch in flight, is idempotent, and leaves the
// world refusing further dispatches. A world dropped without Close
// releases its workers when it is collected.
func (w *World) Close() {
	w.dispatch.Lock()
	defer w.dispatch.Unlock()
	w.workers.close()
	w.workers.live.Wait()
}

// errClosed is RunOn's error on a closed world.
var errClosed = errors.New("mpi: dispatch on a closed world")

// workerSet is a world's parked rank workers: one goroutine per rank that
// has been dispatched, each blocked on its own task channel.
type workerSet struct {
	mu     sync.Mutex
	tasks  []chan rankTask // per world rank; nil until its first dispatch
	closed bool
	// live counts the running workers. It is a separate allocation because
	// the workers hold it, and they must not hold the set.
	live *sync.WaitGroup
}

// start makes sure every listed rank has a worker, or reports a closed
// set.
func (ws *workerSet) start(ranks []int) error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.closed {
		return errClosed
	}
	for _, id := range ranks {
		if ws.tasks[id] == nil {
			ws.tasks[id] = make(chan rankTask, 1)
			ws.live.Add(1)
			go work(ws.tasks[id], ws.live)
		}
	}
	return nil
}

// close ends every worker: each drains its channel and exits.
func (ws *workerSet) close() {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.closed {
		return
	}
	ws.closed = true
	for _, ch := range ws.tasks {
		if ch != nil {
			close(ch)
		}
	}
}

// rankTask is one rank's share of a dispatch.
type rankTask struct {
	r    *Rank
	plan *faults.Plan
	fn   func(r *Rank)
	wg   *sync.WaitGroup
}

// work is a parked rank worker. Between tasks it holds nothing but its
// channel and the live count, so it never keeps a dropped world reachable.
func work(tasks chan rankTask, live *sync.WaitGroup) {
	clean := false
	defer func() {
		if clean {
			live.Done()
			return
		}
		// A task called runtime.Goexit (a test's FailNow inside a rank):
		// its dispatch still completed, and a fresh worker takes over the
		// rank's channel and its place in live.
		go work(tasks, live)
	}()
	for t := range tasks {
		t.run()
	}
	clean = true
}

// run is one rank's turn in a dispatch: the injected crash point, then
// fn, with any panic turned into a world failure.
func (t rankTask) run() {
	defer t.wg.Done()
	defer t.r.world.recoverRank(t.r.id)
	t.plan.CrashPoint(t.r.id) // may panic: an injected rank crash
	t.fn(t.r)
}

// crashPoint evaluates the fault plan's crash point for a rank RunOn does
// not run.
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
