package obs

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Counter is the handle of a registered monotonic counter: Add is one
// atomic add on a field the caller holds a pointer to — no name lookup,
// lock or allocation on the hot path.
type Counter struct{ v atomic.Int64 }

func (c *Counter) Add(n int64) { c.v.Add(n) }
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is the handle of a registered gauge, a value that may fall.
type Gauge struct{ v atomic.Int64 }

func (g *Gauge) Set(n int64) { g.v.Store(n) }
func (g *Gauge) Load() int64 { return g.v.Load() }

// MetricType is a family's Prometheus TYPE.
type MetricType string

const (
	TypeCounter MetricType = "counter"
	TypeGauge   MetricType = "gauge"
	typeSummary MetricType = "summary"
)

// Desc is what a declaration states about a family besides its value.
type Desc struct {
	Name, Help string
	Type       MetricType
}

// family is one registered metric. Scalar families (one unlabelled int64
// sample: counters and gauges, atomic or func-backed) set value; labelled
// gauges and summaries set write, which renders their sample lines.
type family struct {
	Desc
	value func() int64
	write func(io.Writer)
}

// Registry is a daemon's metric table; the zero value is empty and ready.
// Each metric is declared once, by the registration call that returns its
// handle, and that declaration is its lines on /metrics (WritePrometheus,
// in registration order), its entry in the /statz counters (Snapshot) and
// the value tests read (Value). Register at construction, before the
// registry is shared: registration is not synchronised with scrapes.
type Registry struct{ fams []family }

func (r *Registry) register(f family) {
	for _, have := range r.fams {
		if have.Name == f.Name {
			panic("obs: metric " + f.Name + " registered twice")
		}
	}
	r.fams = append(r.fams, f)
}

// Counter registers a counter and returns its handle.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.Func(TypeCounter, name, help, c.Load)
	return c
}

// Gauge registers a gauge and returns its handle.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := new(Gauge)
	r.Func(TypeGauge, name, help, g.Load)
	return g
}

// Func registers a counter or gauge whose value lives elsewhere (a queue's
// length, a cache's own atomics); value is called once per scrape and must
// be safe to call concurrently with whatever updates it.
func (r *Registry) Func(typ MetricType, name, help string, value func() int64) {
	r.register(family{Desc: Desc{name, help, typ}, value: value})
}

// LabelGauge registers a gauge with one label: one sample per entry of
// values, in that order, read from a single call of get per scrape.
func LabelGauge[K ~string, V ~int | ~int64](r *Registry, name, help, label string, values []K, get func() map[K]V) {
	r.register(family{Desc: Desc{name, help, TypeGauge}, write: func(w io.Writer) {
		m := get()
		for _, v := range values {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, string(v), int64(m[v]))
		}
	}})
}

// Summary registers a latency summary (p50/p90/p99, sum and count, in
// seconds) and returns the streaming histogram behind it.
func (r *Registry) Summary(name, help string) *Histogram {
	h := NewHistogram()
	r.register(family{Desc: Desc{name, help, typeSummary}, write: func(w io.Writer) {
		for _, q := range []float64{0.5, 0.9, 0.99} {
			fmt.Fprintf(w, "%s{quantile=\"%g\"} %g\n", name, q, float64(h.QuantileNS(q))/1e9)
		}
		fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.SumNS())/1e9)
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	}})
	return h
}

// WritePrometheus renders every family in Prometheus text exposition
// format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, f := range r.fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		if f.value != nil {
			fmt.Fprintf(w, "%s %d\n", f.Name, f.value())
		} else {
			f.write(w)
		}
	}
}

// Scalars lists the scalar families (the keys of Snapshot) in registration
// order: what an aggregator needs to re-declare their sum under its own
// name.
func (r *Registry) Scalars() []Desc {
	var out []Desc
	for _, f := range r.fams {
		if f.value != nil {
			out = append(out, f.Desc)
		}
	}
	return out
}

// Snapshot returns the current value of every scalar family by name.
// Labelled gauges and summaries have no single value and are left out.
func (r *Registry) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(r.fams))
	for _, f := range r.fams {
		if f.value != nil {
			out[f.Name] = f.value()
		}
	}
	return out
}

// Value returns the current value of one scalar family. It panics on a
// name that is not a registered scalar, so a misspelt name in a test
// cannot read as zero.
func (r *Registry) Value(name string) int64 {
	v, ok := r.Snapshot()[name]
	if !ok {
		panic("obs: no scalar metric " + name)
	}
	return v
}
