package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer (or one HTTP
// request): name, start, end, the span that caused it, and the id of the
// step/apply/cut/restore/job/read it belongs to. Times are nanoseconds
// since the recorder was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: root
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// recorder keeps spans in memory for the traced pass and writes them out
// at exit. A nil recorder records nothing, so untraced rounds pay one nil
// check per call site. Safe for concurrent use: the fleet workload's
// submitter and reader record from two goroutines.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Workload: r.workload, Op: op, Name: name, StartNS: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// spanCost is one row of the self-time table: per span name, how often it
// ran, its total time, and its self time (total minus the part its child
// spans cover).
type spanCost struct {
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	TotalMS  float64 `json:"total_ms"`
	SelfMS   float64 `json:"self_ms"`
}

// costs folds the recorded spans into per-name totals and self times,
// largest self time first within each workload.
func (r *recorder) costs() []spanCost {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	type key struct{ w, n string }
	acc := map[key]*spanCost{}
	for _, s := range r.spans {
		k := key{s.Workload, s.Name}
		c := acc[k]
		if c == nil {
			c = &spanCost{Workload: s.Workload, Name: s.Name}
			acc[k] = c
		}
		d := s.EndNS - s.StartNS
		c.Count++
		c.TotalMS += float64(d) / 1e6
		c.SelfMS += float64(d-child[s.ID]) / 1e6
	}
	out := make([]spanCost, 0, len(acc))
	for _, c := range acc {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// write dumps every span plus the self-time table as JSON.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	costs := r.costs()
	r.mu.Lock()
	doc := struct {
		Costs []spanCost `json:"costs"`
		Spans []span     `json:"spans"`
	}{costs, r.spans}
	raw, err := json.Marshal(doc)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
