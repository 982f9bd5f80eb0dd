package mpi

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nestdiff/internal/faults"
)

// TestRunOnSpawnsOnlyTheGivenRanks: fn runs once on each listed rank, with
// that rank's identity and mailbox, and on no other.
func TestRunOnSpawnsOnlyTheGivenRanks(t *testing.T) {
	w, err := NewWorld(64, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ranks := []int{3, 4, 17, 63}
	var ran [64]atomic.Int32
	if err := w.RunOn(ranks, func(r *Rank) {
		ran[r.ID()].Add(1)
		// A ring over the subset: every member both sends and receives.
		for i, id := range ranks {
			if id == r.ID() {
				r.Send(ranks[(i+1)%len(ranks)], 9, []float64{float64(id)})
				from := ranks[(i+len(ranks)-1)%len(ranks)]
				if got := r.RecvInto(from, 9, nil); len(got) != 1 || got[0] != float64(from) {
					panic("ring payload wrong")
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	for id := range ran {
		want := int32(0)
		for _, m := range ranks {
			if m == id {
				want = 1
			}
		}
		if got := ran[id].Load(); got != want {
			t.Errorf("rank %d ran %d times, want %d", id, got, want)
		}
	}
	if err := w.RunOn(nil, func(*Rank) { t.Error("fn ran on an empty rank set") }); err != nil {
		t.Fatal(err)
	}
}

func TestRunOnRejectsBadRankLists(t *testing.T) {
	w, err := NewWorld(8, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range [][]int{{-1}, {8}, {2, 2}, {5, 3}} {
		if err := w.RunOn(ranks, func(*Rank) { t.Errorf("fn ran for %v", ranks) }); err == nil {
			t.Errorf("rank list %v accepted", ranks)
		}
	}
	// A rejected list leaves the world healthy.
	if err := w.Run(func(*Rank) {}); err != nil {
		t.Fatal(err)
	}
}

// TestRunOnEvaluatesIdleCrashPoints: an injected crash of a rank RunOn
// does not spawn still fails that dispatch, before any rank runs, and the
// failed world stays failed.
func TestRunOnEvaluatesIdleCrashPoints(t *testing.T) {
	plan := faults.NewPlan(1).CrashRank(0, 6)
	w, err := NewWorld(8, Config{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunOn([]int{1, 2}, func(*Rank) { t.Error("a rank ran in a dispatch that had already failed") })
	if err == nil || !strings.Contains(err.Error(), "injected crash of rank 6") {
		t.Fatalf("error %v, want the injected crash of idle rank 6", err)
	}
	if inj := plan.Injections(); len(inj) != 1 || inj[0].Kind != faults.KindRankCrash || inj[0].Rank != 6 {
		t.Fatalf("injection log %+v", inj)
	}
	if again := w.Run(func(*Rank) { t.Error("a rank ran on a failed world") }); again == nil || again.Error() != err.Error() {
		t.Fatalf("failed world reported %v, want its first failure %v", again, err)
	}
}

// TestRunOnCrashOfSpawnedRank: the crash point of a spawned rank fires on
// its own goroutine and unblocks a peer waiting on it.
func TestRunOnCrashOfSpawnedRank(t *testing.T) {
	plan := faults.NewPlan(1).CrashRank(0, 5)
	w, err := NewWorld(8, Config{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunOn([]int{2, 5}, func(r *Rank) {
		if r.ID() == 2 {
			r.RecvInto(5, 1, nil) // rank 5 dies before sending
		}
	})
	if err == nil || !strings.Contains(err.Error(), "injected crash of rank 5") {
		t.Fatalf("error %v, want the injected crash of rank 5", err)
	}
}

// TestMailboxPoisonWakesPlainReceive: with no receive timeout the consumer
// parks in a plain channel receive; poison must still wake it.
func TestMailboxPoisonWakesPlainReceive(t *testing.T) {
	var b mailbox
	b.init(2)
	woke := make(chan any, 1)
	go func() {
		defer func() { woke <- recover() }()
		b.get(1, 0, nil, 0)
	}()
	for b.waiting.Load() == 0 { // until the consumer has published its wait
		time.Sleep(time.Millisecond)
	}
	b.poison()
	select {
	case p := <-woke:
		if p != panicPoisoned {
			t.Fatalf("consumer ended with %v, want the poison panic", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("poison did not wake the parked consumer")
	}
	// Poison outlives the wake: a later receive fails without parking.
	defer func() {
		if p := recover(); p != panicPoisoned {
			t.Fatalf("receive on a poisoned mailbox ended with %v", p)
		}
	}()
	b.get(0, 0, nil, 0)
}

// TestMailboxTargetedWakeupStress: two producers and one consumer that
// alternates between them, 10k messages in all. Each producer signals only
// while the consumer waits on it, so a lost wakeup would park the consumer
// forever with its message queued.
func TestMailboxTargetedWakeupStress(t *testing.T) {
	const perProducer = 5000
	w, err := NewWorld(3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(r *Rank) {
			if r.ID() > 0 {
				for i := 0; i < perProducer; i++ {
					r.Send(0, i%7, []float64{float64(r.ID()), float64(i)})
				}
				return
			}
			var buf []float64
			for i := 0; i < perProducer; i++ {
				for from := 1; from <= 2; from++ {
					buf = r.RecvInto(from, i%7, buf)
					if len(buf) != 2 || buf[0] != float64(from) || buf[1] != float64(i) {
						panic("stress payload out of order")
					}
				}
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("consumer never finished: lost wakeup")
	}
}

// TestMailboxIgnoresOtherPeersWhileParked pins the targeting itself: a put
// from a peer the consumer is not waiting on leaves no wakeup token.
func TestMailboxIgnoresOtherPeersWhileParked(t *testing.T) {
	var b mailbox
	b.init(3)
	got := make(chan float64, 1)
	go func() {
		_, arrival, _ := b.get(2, 5, nil, 0)
		got <- arrival
	}()
	for b.waiting.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	b.put(1, 5, nil, 1)
	if len(b.signal) != 0 {
		t.Fatal("a put from another peer signalled the parked consumer")
	}
	b.put(2, 5, nil, 2)
	select {
	case arrival := <-got:
		if arrival != 2 {
			t.Fatalf("consumer took the message arriving at %g, want the one from peer 2", arrival)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the awaited peer's put did not wake the consumer")
	}
}
