package mpi

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nestdiff/internal/faults"
)

// awaitGoroutines polls until the goroutine count is at most want, calling
// runtime.GC first on every poll when collect is set, and fails the test
// with every stack on timeout.
func awaitGoroutines(t *testing.T, want int, collect bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if collect {
			runtime.GC()
		}
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("%d goroutines, want at most %d\n%s", runtime.NumGoroutine(), want, buf[:n])
}

// parkedWorkers counts the rank workers of every world in the process.
func parkedWorkers() int {
	buf := make([]byte, 1<<22)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "nestdiff/internal/mpi.work(")
}

// TestRunOnReusesRankWorkers: the first dispatch of a rank starts its
// worker and every later one reuses it, so 100 dispatches leave the
// goroutine count where the first left it; each dispatch still hands fn a
// rank of the right identity with a fresh clock.
func TestRunOnReusesRankWorkers(t *testing.T) {
	w, err := NewWorld(64, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ranks := []int{0, 5, 6, 40, 63}
	var ran, want [64]atomic.Int32
	fn := func(r *Rank) {
		if r.Clock() != 0 {
			t.Errorf("rank %d starts a dispatch at clock %g", r.ID(), r.Clock())
		}
		r.Compute(1)
		ran[r.ID()].Add(1)
	}
	if err := w.RunOn(ranks, fn); err != nil {
		t.Fatal(err)
	}
	warm := runtime.NumGoroutine()
	for i := 0; i <= 100; i++ {
		subset := ranks[i%len(ranks):]
		for _, id := range subset {
			want[id].Add(1)
		}
		if i == 0 {
			continue // the warming dispatch above
		}
		if err := w.RunOn(subset, fn); err != nil {
			t.Fatal(err)
		}
	}
	if now := runtime.NumGoroutine(); now > warm {
		t.Fatalf("%d goroutines after 100 dispatches, %d after the first", now, warm)
	}
	for id := range ran {
		if ran[id].Load() != want[id].Load() {
			t.Errorf("rank %d ran %d times, want %d", id, ran[id].Load(), want[id].Load())
		}
	}
}

// TestWorldCloseReleasesWorkers: Close stops every parked worker, is
// idempotent, and a dispatch after it is refused without running fn.
func TestWorldCloseReleasesWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	w, err := NewWorld(32, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(r *Rank) { r.Compute(1) }); err != nil {
		t.Fatal(err)
	}
	if n := parkedWorkers(); n < 32 {
		t.Fatalf("%d rank workers after a 32-rank Run", n)
	}
	w.Close()
	w.Close()
	awaitGoroutines(t, baseline, false)
	if err := w.RunOn([]int{3}, func(*Rank) { t.Error("a rank ran on a closed world") }); err == nil {
		t.Fatal("dispatch on a closed world accepted")
	}
}

// dropWorld runs a world's ranks and its shared communicator, then drops
// the world without Close.
func dropWorld(t *testing.T) {
	w, err := NewWorld(16, Config{})
	if err != nil {
		t.Fatal(err)
	}
	all, err := w.All()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(all.Barrier); err != nil {
		t.Fatal(err)
	}
	if n := parkedWorkers(); n < 16 {
		t.Fatalf("%d rank workers after a 16-rank Run", n)
	}
	runtime.KeepAlive(w)
}

// TestDroppedWorldReleasesWorkers: a world that is dropped without Close —
// World and its communicators referencing each other — still stops its
// workers once collected.
func TestDroppedWorldReleasesWorkers(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()
	dropWorld(t)
	awaitGoroutines(t, baseline, true)
}

// TestRankWorkersSurviveCrashAndPoison drills the fault paths on workers
// that earlier dispatches warmed: an injected crash fails the dispatch
// and unblocks the peer waiting on the crashed rank (the poison path),
// the failed world refuses later dispatches, a rank's own panic is
// reported the same way on a second world, and neither failure strands a
// worker: Close still releases every one of them.
func TestRankWorkersSurviveCrashAndPoison(t *testing.T) {
	baseline := runtime.NumGoroutine()
	w, err := NewWorld(8, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ring := func(r *Rank) {
		r.Send((r.ID()+1)%8, 1, []float64{float64(r.ID())})
		r.RecvInto((r.ID()+7)%8, 1, nil)
	}
	for i := 0; i < 10; i++ {
		if err := w.Run(ring); err != nil {
			t.Fatal(err)
		}
	}
	warm := runtime.NumGoroutine()

	w.SetFaults(faults.NewPlan(1).CrashRank(0, 5))
	err = w.RunOn([]int{2, 5}, func(r *Rank) {
		if r.ID() == 2 {
			r.RecvInto(5, 1, nil) // rank 5 dies before sending
		}
	})
	if err == nil || !strings.Contains(err.Error(), "injected crash of rank 5") {
		t.Fatalf("error %v, want the injected crash of rank 5", err)
	}
	if again := w.Run(ring); again == nil || again.Error() != err.Error() {
		t.Fatalf("failed world reported %v, want its first failure %v", again, err)
	}

	v, err := NewWorld(8, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Run(ring); err != nil {
		t.Fatal(err)
	}
	err = v.Run(func(r *Rank) {
		if r.ID() == 3 {
			panic("rank 3 gives up")
		}
		r.RecvInto(3, 2, nil) // poisoned: rank 3 never sends
	})
	if err == nil || !strings.Contains(err.Error(), "rank 3 gives up") {
		t.Fatalf("error %v, want rank 3's panic", err)
	}
	if now := runtime.NumGoroutine(); now > warm+8 {
		t.Fatalf("%d goroutines after the failures, %d workers warm: a failed dispatch spawned more", now, warm+8)
	}

	w.Close()
	v.Close()
	awaitGoroutines(t, baseline, false)
}
