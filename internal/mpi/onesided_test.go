package mpi

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nestdiff/internal/faults"
)

// TestOneSidedMatchesSendClocks: a transfer posted with Post and completed
// with Arrive moves every clock exactly as the same message sent with Send
// and received with RecvInto does, on a priced network with a send
// overhead and an injected delay; and each Post is one message of its
// stream to the fault plan, so an nth-message rule counts it.
func TestOneSidedMatchesSendClocks(t *testing.T) {
	run := func(oneSided bool) (sender, receiver float64, inj []faults.Injection) {
		plan := faults.NewPlan(1).DelayMessage(0, 3, 5, 2, 1e-3)
		w := newTorusWorld(t, 2, 2, Config{Faults: plan, SendOverhead: 2e-7})
		var seq atomic.Int64
		var arrivals [2]float64
		var lost [2]bool
		if err := w.Run(func(r *Rank) {
			switch r.ID() {
			case 0:
				r.Compute(1e-6)
				for i := range 2 {
					if oneSided {
						arrivals[i], lost[i] = r.Post(3, 5, r.LinkTime(3, 8*40))
					} else {
						r.Send(3, 5, make([]float64, 40))
					}
				}
				seq.Store(1)
				r.Notify(3)
				sender = r.Clock()
			case 3:
				r.Compute(2e-6)
				for i := range 2 {
					if oneSided {
						r.Await(0, &seq, 1)
						r.Arrive(0, 5, arrivals[i], lost[i])
					} else {
						r.RecvInto(0, 5, nil)
					}
				}
				receiver = r.Clock()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return sender, receiver, plan.Injections()
	}
	s1, r1, inj1 := run(false)
	s2, r2, inj2 := run(true)
	if math.Float64bits(s1) != math.Float64bits(s2) || math.Float64bits(r1) != math.Float64bits(r2) {
		t.Fatalf("clocks: Send/RecvInto sender %v receiver %v, Post/Arrive sender %v receiver %v", s1, r1, s2, r2)
	}
	if len(inj1) != 1 || len(inj2) != 1 || inj1[0].Detail != inj2[0].Detail {
		t.Fatalf("injections: Send %+v, Post %+v", inj1, inj2)
	}
}

// TestOneSidedWaitsObeyFaults: Await parks until the counter is raised
// and Notify wakes it; a dropped transfer fails its reader with a lost
// receive's error; a crashed writer's poison wakes a parked reader; and a
// receive timeout bounds a wait on a counter that is never raised.
func TestOneSidedWaitsObeyFaults(t *testing.T) {
	t.Run("notify", func(t *testing.T) {
		w := newTorusWorld(t, 2, 1, Config{})
		var seq atomic.Int64
		if err := w.Run(func(r *Rank) {
			if r.ID() == 0 {
				time.Sleep(20 * time.Millisecond) // let the reader park
				seq.Store(3)
				r.Notify(1)
				return
			}
			r.Await(0, &seq, 3)
		}); err != nil {
			t.Fatal(err)
		}
	})
	fails := func(t *testing.T, plan *faults.Plan, writer func(r *Rank, seq *atomic.Int64), want string) {
		t.Helper()
		w := newTorusWorld(t, 2, 1, Config{Faults: plan})
		var seq atomic.Int64
		var at float64
		var lost bool
		done := make(chan error, 1)
		go func() {
			done <- w.Run(func(r *Rank) {
				if r.ID() == 0 {
					at, lost = r.Post(1, 9, r.LinkTime(1, 8))
					writer(r, &seq)
					return
				}
				r.Await(0, &seq, 1)
				r.Arrive(0, 9, at, lost)
			})
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("run returned %v, want %q", err, want)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("the reader stayed parked")
		}
	}
	publish := func(r *Rank, seq *atomic.Int64) {
		seq.Store(1)
		r.Notify(1)
	}
	t.Run("dropped", func(t *testing.T) {
		fails(t, faults.NewPlan(1).DropMessage(0, 1, 9, 1), publish, "timed out (message lost?)")
	})
	t.Run("crashed writer", func(t *testing.T) {
		fails(t, faults.NewPlan(1), func(*Rank, *atomic.Int64) {
			time.Sleep(20 * time.Millisecond) // let the reader park
			panic("writer crashed")
		}, "writer crashed")
	})
	t.Run("timeout", func(t *testing.T) {
		fails(t, faults.NewPlan(1).WithRecvTimeout(50*time.Millisecond), func(*Rank, *atomic.Int64) {}, "timed out")
	})
}
