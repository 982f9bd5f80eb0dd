package serve

import (
	"sync"
	"testing"
	"time"

	"nestdiff/internal/field"
)

func fillConst(v float64) func() map[string]*field.Field {
	return func() map[string]*field.Field {
		f := field.New(4, 4)
		f.Fill(v)
		return map[string]*field.Field{"qcloud": f}
	}
}

func TestPublisherNoReaderNoCopy(t *testing.T) {
	p := NewPublisher()
	copies := 0
	for step := 1; step <= 100; step++ {
		p.Publish(step, func() map[string]*field.Field {
			copies++
			return nil
		})
	}
	if copies != 0 {
		t.Fatalf("fill ran %d times with no reader, want 0", copies)
	}
	if p.Current() != nil {
		t.Fatal("snapshot materialized without demand")
	}
}

func TestPublisherDemandDriven(t *testing.T) {
	p := NewPublisher()
	p.Publish(1, fillConst(1))
	if p.Current() != nil {
		t.Fatal("published without demand")
	}
	done := make(chan *Snapshot, 1)
	go func() {
		snap, err := p.Acquire(5 * time.Second)
		if err != nil {
			t.Error(err)
		}
		done <- snap
	}()
	// The reader demands; the next boundary materializes.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case snap := <-done:
			if snap.Vars["qcloud"].At(0, 0) != 2 {
				t.Fatalf("snapshot holds %v, want the step-2 field", snap.Vars["qcloud"].At(0, 0))
			}
			if snap.Step < 2 {
				t.Fatalf("snapshot step %d", snap.Step)
			}
			return
		case <-deadline:
			t.Fatal("Acquire never returned")
		default:
			p.Publish(2, fillConst(2))
			time.Sleep(time.Millisecond)
		}
	}
}

func TestPublisherIdleServesLast(t *testing.T) {
	p := NewPublisher()
	if _, err := p.Acquire(10 * time.Millisecond); err != ErrNoSnapshot {
		t.Fatalf("idle publisher with no snapshot: err %v, want ErrNoSnapshot", err)
	}
	// Demand + publish, then park.
	go func() {
		time.Sleep(5 * time.Millisecond)
		p.Publish(7, fillConst(7))
	}()
	snap, err := p.Acquire(5 * time.Second)
	if err != nil || snap.Step != 7 {
		t.Fatalf("Acquire: %v %v", snap, err)
	}
	p.SetIdle(true)
	got, err := p.Acquire(10 * time.Millisecond)
	if err != nil || got != snap {
		t.Fatalf("idle Acquire returned %v, %v; want the last snapshot", got, err)
	}
}

func TestPublisherEpochBumpInvalidatesFreshness(t *testing.T) {
	p := NewPublisher()
	go func() {
		time.Sleep(2 * time.Millisecond)
		p.Publish(1, fillConst(1))
	}()
	snap, err := p.Acquire(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 0 {
		t.Fatalf("first epoch %d", snap.Epoch)
	}
	p.BumpEpoch()
	// The old snapshot stays readable...
	if cur := p.Current(); cur != snap {
		t.Fatal("pre-resize snapshot vanished")
	}
	// ...but a fresh Acquire demands a new one under the new epoch.
	go func() {
		time.Sleep(2 * time.Millisecond)
		p.Publish(2, fillConst(2))
	}()
	snap2, err := p.Acquire(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Epoch != 1 || snap2 == snap {
		t.Fatalf("post-bump snapshot epoch %d (same object: %v), want a fresh epoch-1 snapshot", snap2.Epoch, snap2 == snap)
	}
}

func TestPublisherConcurrentReaders(t *testing.T) {
	p := NewPublisher()
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		step := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			step++
			v := float64(step)
			p.Publish(step, fillConst(v))
			time.Sleep(100 * time.Microsecond)
		}
	}()
	var readers sync.WaitGroup
	for i := 0; i < 8; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := 0; k < 50; k++ {
				snap, err := p.Acquire(5 * time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				// The snapshot must be internally consistent: the field
				// value equals its step.
				if got := snap.Vars["qcloud"].At(0, 0); got != float64(snap.Step) {
					t.Errorf("snapshot step %d holds field value %v", snap.Step, got)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

func TestPublisherNilSafe(t *testing.T) {
	var p *Publisher
	p.Publish(1, nil)
	p.BumpEpoch()
	p.SetIdle(true)
	if _, err := p.Acquire(time.Millisecond); err != ErrNoSnapshot {
		t.Fatalf("nil publisher Acquire err %v", err)
	}
	if p.Current() != nil || p.Epoch() != 0 {
		t.Fatal("nil publisher leaked state")
	}
}

// TestPublisherDemandedSignal checks the parked worker's wake-up: a token
// arrives only while a reader's demand is unmet, and the publish that
// answers the demand consumes it.
func TestPublisherDemandedSignal(t *testing.T) {
	p := NewPublisher()
	p.Publish(1, fillConst(1))
	select {
	case <-p.Demanded():
		t.Fatal("demand token with no reader")
	default:
	}
	done := make(chan *Snapshot, 1)
	go func() {
		snap, err := p.Acquire(5 * time.Second)
		if err != nil {
			t.Error(err)
		}
		done <- snap
	}()
	select {
	case <-p.Demanded():
	case <-time.After(5 * time.Second):
		t.Fatal("a waiting reader sent no demand token")
	}
	// The parked worker answers with the boundary it sits at.
	if snap := p.Publish(1, fillConst(1)); snap == nil || snap.Step != 1 {
		t.Fatalf("demanded publish returned %v, want the step-1 snapshot", snap)
	}
	if snap := <-done; snap == nil || snap.Step != 1 {
		t.Fatalf("reader got %v, want the parked step 1", snap)
	}
	// A fresh snapshot needs no demand.
	if _, err := p.Acquire(time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.Demanded():
		t.Fatal("demand token left behind by a fresh read")
	default:
	}
	if p.Demanded() == nil || (*Publisher)(nil).Demanded() != nil {
		t.Fatal("Demanded: want a channel, and nil on a nil publisher")
	}
}

// TestPublisherPublishIfStale checks the going-idle publish: copy-free for
// a job nobody read, a fresh materialization when a reader's snapshot has
// fallen behind, and nothing when it is already current.
func TestPublisherPublishIfStale(t *testing.T) {
	p := NewPublisher()
	p.Publish(3, fillConst(3))
	if snap := p.PublishIfStale(3, fillConst(3)); snap != nil {
		t.Fatal("materialized a snapshot nobody ever read")
	}
	go func() {
		time.Sleep(2 * time.Millisecond)
		p.Publish(4, fillConst(4))
	}()
	if snap, err := p.Acquire(5 * time.Second); err != nil || snap.Step != 4 {
		t.Fatalf("Acquire: %v %v", snap, err)
	}
	p.Publish(9, fillConst(9))
	snap := p.PublishIfStale(9, fillConst(9))
	if snap == nil || snap.Step != 9 || snap.Vars["qcloud"].At(0, 0) != 9 {
		t.Fatalf("stale publish returned %v, want the step-9 snapshot", snap)
	}
	if again := p.PublishIfStale(9, fillConst(9)); again != nil {
		t.Fatal("re-materialized a current snapshot")
	}
	p.SetIdle(true)
	if got, err := p.Acquire(time.Millisecond); err != nil || got != snap {
		t.Fatalf("idle read got %v, %v; want the step-9 snapshot", got, err)
	}
	if (*Publisher)(nil).PublishIfStale(1, nil) != nil {
		t.Fatal("nil publisher materialized")
	}
}
