package mpi

import (
	"strings"
	"testing"
	"time"

	"nestdiff/internal/faults"
)

// TestInjectedDelayAdvancesReceiverClock: a delay rule adds virtual
// transit time, so the receiver's clock lands at sentAt + delay even on a
// free (nil-Net) network.
func TestInjectedDelayAdvancesReceiverClock(t *testing.T) {
	plan := faults.NewPlan(1).DelayMessage(0, 1, 7, 1, 2.5)
	w, err := NewWorld(2, Config{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	var recvClock float64
	err = w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Compute(1.0)
			r.Send(1, 7, []float64{42})
		case 1:
			got := r.RecvInto(0, 7, nil)
			if len(got) != 1 || got[0] != 42 {
				t.Errorf("payload %v", got)
			}
			recvClock = r.Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvClock < 3.5 {
		t.Fatalf("receiver clock %g, want >= 3.5 (1.0 compute + 2.5 injected delay)", recvClock)
	}
	inj := plan.Injections()
	if len(inj) != 1 || inj[0].Kind != faults.KindMessageDelay {
		t.Fatalf("injection log %+v", inj)
	}
}

// TestInjectedDropTimesOutReceiver: a dropped message must not deadlock
// the world — the receiver times out, its rank fails, and Run returns an
// error while every goroutine unwinds.
func TestInjectedDropTimesOutReceiver(t *testing.T) {
	plan := faults.NewPlan(1).
		DropMessage(0, 1, 7, 1).
		WithRecvTimeout(100 * time.Millisecond)
	w, err := NewWorld(3, Config{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(r *Rank) {
			switch r.ID() {
			case 0:
				r.Send(1, 7, []float64{1})
			case 1:
				r.RecvInto(0, 7, nil) // never arrives
			case 2:
				// An innocent blocked rank: must be poisoned free, not hang.
				r.RecvInto(1, 9, nil)
			}
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("dropped message produced no error")
		}
		if !strings.Contains(err.Error(), "timed out") {
			t.Fatalf("error %v, want a receive timeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("world deadlocked on a dropped message")
	}
	if inj := plan.Injections(); len(inj) != 1 || inj[0].Kind != faults.KindMessageDrop {
		t.Fatalf("injection log %+v", inj)
	}
}

// TestMailboxDeliveryUnaffectedByForeignRules: rules scoped to another
// stream leave delivery order and payloads intact.
func TestMailboxDeliveryUnaffectedByForeignRules(t *testing.T) {
	plan := faults.NewPlan(1).DropMessage(5, 6, 1, 1) // no such stream here
	w, err := NewWorld(2, Config{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < 5; i++ {
				r.Send(1, 3, []float64{float64(i)})
			}
			return
		}
		for i := 0; i < 5; i++ {
			got := r.RecvInto(0, 3, nil)
			if len(got) != 1 || got[0] != float64(i) {
				t.Errorf("message %d = %v", i, got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if inj := plan.Injections(); len(inj) != 0 {
		t.Fatalf("foreign rule fired: %+v", inj)
	}
}

// TestInjectedCrashPoisonsWorld: a scheduled rank crash surfaces as a Run
// error and unblocks ranks waiting on the dead rank.
func TestInjectedCrashPoisonsWorld(t *testing.T) {
	plan := faults.NewPlan(1).CrashRank(0, 1) // step 0: fires immediately
	w, err := NewWorld(2, Config{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(r *Rank) {
			if r.ID() == 0 {
				r.RecvInto(1, 1, nil) // rank 1 dies before sending
			}
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "injected crash of rank 1") {
			t.Fatalf("error %v, want injected crash", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("world deadlocked after injected crash")
	}
}
