package obs

import (
	"bytes"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"
)

type phase string

// TestRegistryRendersEveryKindInRegistrationOrder: one declaration per
// metric yields its exposition lines (in the order declared), its Snapshot
// entry, its Scalars entry and its Value.
func TestRegistryRendersEveryKindInRegistrationOrder(t *testing.T) {
	r := new(Registry)
	LabelGauge(r, "app_jobs", "Jobs by phase.", "phase", []phase{"run", "idle"},
		func() map[phase]int { return map[phase]int{"run": 2} })
	c := r.Counter("app_steps_total", "Steps.")
	g := r.Gauge("app_last_bytes", "Last size.")
	depth := int64(7)
	r.Func(TypeGauge, "app_queue_depth", "Queue depth.", func() int64 { return depth })
	h := r.Summary("app_step_seconds", "Step time.")
	c.Add(3)
	g.Set(40)
	g.Set(12)
	h.ObserveNS(16) // below 32 ns the histogram's buckets are exact

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	const want = `# HELP app_jobs Jobs by phase.
# TYPE app_jobs gauge
app_jobs{phase="run"} 2
app_jobs{phase="idle"} 0
# HELP app_steps_total Steps.
# TYPE app_steps_total counter
app_steps_total 3
# HELP app_last_bytes Last size.
# TYPE app_last_bytes gauge
app_last_bytes 12
# HELP app_queue_depth Queue depth.
# TYPE app_queue_depth gauge
app_queue_depth 7
# HELP app_step_seconds Step time.
# TYPE app_step_seconds summary
app_step_seconds{quantile="0.5"} 1.6e-08
app_step_seconds{quantile="0.9"} 1.6e-08
app_step_seconds{quantile="0.99"} 1.6e-08
app_step_seconds_sum 1.6e-08
app_step_seconds_count 1
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	wantSnap := map[string]int64{"app_steps_total": 3, "app_last_bytes": 12, "app_queue_depth": 7}
	if got := r.Snapshot(); !reflect.DeepEqual(got, wantSnap) {
		t.Fatalf("Snapshot = %v, want %v", got, wantSnap)
	}
	wantDescs := []Desc{
		{"app_steps_total", "Steps.", TypeCounter},
		{"app_last_bytes", "Last size.", TypeGauge},
		{"app_queue_depth", "Queue depth.", TypeGauge},
	}
	if got := r.Scalars(); !reflect.DeepEqual(got, wantDescs) {
		t.Fatalf("Scalars = %v, want %v", got, wantDescs)
	}
	if got := r.Value("app_steps_total"); got != 3 {
		t.Fatalf("Value = %d, want 3", got)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestRegistryRejectsDuplicateAndUnknownNames: a second declaration of a
// name and a read of an undeclared (or non-scalar) one are bugs, loudly.
func TestRegistryRejectsDuplicateAndUnknownNames(t *testing.T) {
	r := new(Registry)
	r.Counter("app_steps_total", "Steps.")
	r.Summary("app_step_seconds", "Step time.")
	mustPanic(t, "duplicate registration", func() { r.Gauge("app_steps_total", "Again.") })
	mustPanic(t, "Value of an unknown name", func() { r.Value("app_stepz_total") })
	mustPanic(t, "Value of a summary", func() { r.Value("app_step_seconds") })
}

// TestRegistryConcurrentUpdatesAgainstScrapes hammers every handle kind
// while a reader scrapes: run under -race, it is the proof that a scrape
// needs no lock against the hot path.
func TestRegistryConcurrentUpdatesAgainstScrapes(t *testing.T) {
	r := new(Registry)
	c := r.Counter("app_steps_total", "Steps.")
	g := r.Gauge("app_last_bytes", "Last size.")
	h := r.Summary("app_step_seconds", "Step time.")
	const writers, each = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Add(1)
				g.Set(int64(i))
				h.ObserveNS(int64(i))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.WritePrometheus(io.Discard)
			r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := r.Value("app_steps_total"); got != writers*each {
		t.Fatalf("counter = %d after %d adds", got, writers*each)
	}
	if got := h.Count(); got != writers*each {
		t.Fatalf("summary count = %d after %d observes", got, writers*each)
	}
}

// TestRegistryHotPathZeroAlloc: a registered handle is a pointer to an
// atomic; updating it allocates nothing.
func TestRegistryHotPathZeroAlloc(t *testing.T) {
	r := new(Registry)
	c := r.Counter("app_steps_total", "Steps.")
	g := r.Gauge("app_last_bytes", "Last size.")
	h := r.Summary("app_step_seconds", "Step time.")
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(5)
		h.Observe(time.Millisecond)
	}); n != 0 {
		t.Fatalf("Counter.Add + Gauge.Set + Summary Observe = %v allocs, want 0", n)
	}
}
