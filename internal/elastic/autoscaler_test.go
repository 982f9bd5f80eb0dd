package elastic

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"nestdiff/internal/obs"
)

// fakeTarget is an in-memory fleet: resizes apply instantly, and every
// applied resize is recorded so tests can audit spacing and direction.
type fakeTarget struct {
	mu     sync.Mutex
	jobs   map[string]*JobLoad
	failID string // Resize on this job always errors
	log    []appliedResize
}

type appliedResize struct {
	id       string
	from, to int
	at       time.Time
}

func (f *fakeTarget) Jobs() ([]JobLoad, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]JobLoad, 0, len(f.jobs))
	for _, j := range f.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

func (f *fakeTarget) resize(id string, procs int, at time.Time) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if id == f.failID {
		return errors.New("injected resize failure")
	}
	j, ok := f.jobs[id]
	if !ok {
		return fmt.Errorf("unknown job %s", id)
	}
	f.log = append(f.log, appliedResize{id: id, from: j.Cores, to: procs, at: at})
	j.Cores = procs
	return nil
}

func (f *fakeTarget) totalCores() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	total := 0
	for _, j := range f.jobs {
		total += j.Cores
	}
	return total
}

// clockTarget binds the fake target's resize log to the soak's virtual
// clock (Target.Resize has no time argument).
type clockTarget struct {
	f   *fakeTarget
	now *time.Time
}

func (c clockTarget) Jobs() ([]JobLoad, error)          { return c.f.Jobs() }
func (c clockTarget) Resize(id string, procs int) error { return c.f.resize(id, procs, *c.now) }

// newCounters returns unregistered handles, as good as registered ones to
// the autoscaler.
func newCounters() AutoscalerCounters {
	return AutoscalerCounters{Grows: new(obs.Counter), Shrinks: new(obs.Counter), Failures: new(obs.Counter)}
}

// TestAutoscalerSoak drives a hot/idle/paused job mix through many
// decision passes under a fleet budget: the hot job must grow at least
// once, the idle job must shrink at least once, the budget must never be
// exceeded, the paused job must never be touched, and the per-job
// cooldown must keep any job from being resized twice within the window
// (the anti-oscillation guard).
func TestAutoscalerSoak(t *testing.T) {
	// Core counts sit inside the profiled processor range (16..1024):
	// below it Predict clamps, the modelled saving vanishes, and a grow
	// can never pay for itself.
	ft := &fakeTarget{jobs: map[string]*JobLoad{
		"hot":    {ID: "hot", State: "running", Cores: 16, ActiveNests: 5, NX: 180, NY: 105, StepsLeft: 500},
		"idle":   {ID: "idle", State: "running", Cores: 64, ActiveNests: 0, NX: 180, NY: 105, StepsLeft: 500},
		"paused": {ID: "paused", State: "paused", Cores: 16, ActiveNests: 9, NX: 180, NY: 105, StepsLeft: 500},
	}}
	const budget = 128
	cooldown := 5 * time.Second
	now := time.Unix(1700000000, 0)
	counters := newCounters()
	as, err := NewAutoscaler(clockTarget{f: ft, now: &now}, AutoscalerConfig{
		Budget:   budget,
		Cooldown: cooldown,
		// Make the payoff test about direction, not magnitude: any
		// predicted speedup justifies a grow.
		GrowMargin:        1e-9,
		RedistBytesPerSec: 1e18,
	}, counters)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 60; i++ {
		now = now.Add(time.Second)
		as.Tick(now)
		if total := ft.totalCores(); total > budget {
			t.Fatalf("tick %d: fleet uses %d cores over the %d budget", i, total, budget)
		}
	}

	grows, shrinks, failures := counters.Grows.Load(), counters.Shrinks.Load(), counters.Failures.Load()
	if grows < 1 {
		t.Fatalf("soak produced %d grows, want >= 1", grows)
	}
	if shrinks < 1 {
		t.Fatalf("soak produced %d shrinks, want >= 1", shrinks)
	}
	if failures != 0 {
		t.Fatalf("soak produced %d failures, want 0", failures)
	}

	ft.mu.Lock()
	defer ft.mu.Unlock()
	lastAt := make(map[string]time.Time)
	for _, r := range ft.log {
		if r.id == "paused" {
			t.Fatalf("autoscaler resized a paused job: %+v", r)
		}
		switch r.id {
		case "hot":
			if r.to <= r.from {
				t.Fatalf("hot job oscillated: resized %d -> %d", r.from, r.to)
			}
		case "idle":
			if r.to >= r.from {
				t.Fatalf("idle job oscillated: resized %d -> %d", r.from, r.to)
			}
		}
		if prev, ok := lastAt[r.id]; ok && r.at.Sub(prev) < cooldown {
			t.Fatalf("job %s resized twice within the %s cooldown (%s apart)",
				r.id, cooldown, r.at.Sub(prev))
		}
		lastAt[r.id] = r.at
	}
	if ft.jobs["hot"].Cores <= 16 {
		t.Fatalf("hot job still at %d cores after soak", ft.jobs["hot"].Cores)
	}
	if ft.jobs["idle"].Cores >= 64 {
		t.Fatalf("idle job still at %d cores after soak", ft.jobs["idle"].Cores)
	}
	if ft.jobs["idle"].Cores < 4 {
		t.Fatalf("idle job shrunk below the %d-proc floor: %d", 4, ft.jobs["idle"].Cores)
	}
}

// TestAutoscalerFailuresCoolDown pins the broken-path guard: a failing
// resize counts as a failure AND starts the job's cooldown, so the
// autoscaler does not hammer a worker that keeps rejecting resizes.
func TestAutoscalerFailuresCoolDown(t *testing.T) {
	ft := &fakeTarget{
		failID: "idle",
		jobs: map[string]*JobLoad{
			"idle": {ID: "idle", State: "running", Cores: 32, ActiveNests: 0, StepsLeft: 500},
		},
	}
	now := time.Unix(1700000000, 0)
	counters := newCounters()
	as, err := NewAutoscaler(clockTarget{f: ft, now: &now}, AutoscalerConfig{
		Budget:   64,
		Cooldown: 10 * time.Second,
	}, counters)
	if err != nil {
		t.Fatal(err)
	}
	if ds := as.Tick(now); len(ds) != 1 || ds[0].Err == nil {
		t.Fatalf("first tick decisions %+v, want one failed shrink", ds)
	}
	// Within the cooldown: no retry, even though the job is still idle.
	if ds := as.Tick(now.Add(time.Second)); len(ds) != 0 {
		t.Fatalf("tick inside cooldown issued %+v", ds)
	}
	// After the cooldown the shrink is attempted again.
	if ds := as.Tick(now.Add(11 * time.Second)); len(ds) != 1 {
		t.Fatalf("tick after cooldown issued %+v, want one decision", ds)
	}
	if failures := counters.Failures.Load(); failures != 2 {
		t.Fatalf("%d failures recorded, want 2", failures)
	}
	if ft.jobs["idle"].Cores != 32 {
		t.Fatalf("failed resizes changed cores to %d", ft.jobs["idle"].Cores)
	}
}

// TestAutoscalerDisabled pins the off switch and constructor errors.
func TestAutoscalerDisabled(t *testing.T) {
	if _, err := NewAutoscaler(nil, AutoscalerConfig{Budget: 8}, newCounters()); err == nil {
		t.Fatal("nil target accepted")
	}
	ft := &fakeTarget{jobs: map[string]*JobLoad{
		"idle": {ID: "idle", State: "running", Cores: 32, ActiveNests: 0, StepsLeft: 500},
	}}
	now := time.Unix(1700000000, 0)
	as, err := NewAutoscaler(clockTarget{f: ft, now: &now}, AutoscalerConfig{Budget: 0}, newCounters())
	if err != nil {
		t.Fatal(err)
	}
	if ds := as.Tick(now); ds != nil {
		t.Fatalf("disabled autoscaler issued %+v", ds)
	}
}
