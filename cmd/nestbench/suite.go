package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// suiteFile is bench/suite.json: the declarative description of what the
// benchmark runs. Input shapes live here, not in code, so a change to the
// benchmark is a reviewable diff of one data file.
type suiteFile struct {
	Schema string `json:"schema"`
	// Rounds is R: every timed metric is the median over R interleaved
	// rounds (round k of every workload before round k+1 of any).
	Rounds    int            `json:"rounds"`
	Workloads []workloadSpec `json:"workloads"`
	// Metrics declares the end-to-end metrics: unit, direction, exactness
	// and the workloads that report each. Bounds are not here: the one
	// bound table is BENCHMARK.json's, reached through Gates.
	Metrics []metricSpec `json:"metrics"`
}

// workloadSpec is one workload. Kind selects the driver; the remaining
// fields are that driver's input shape. Smoke, when present, overrides
// sizes for -smoke runs (tests).
type workloadSpec struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // track | churn | ckpt | fleet
	Why  string `json:"why"`
	// Rounds overrides the suite's R for this workload (0: suite default).
	Rounds int `json:"rounds,omitempty"`

	// Machine and pipeline shape (track, ckpt, fleet jobs).
	Scenario      string `json:"scenario,omitempty"`
	Machine       string `json:"machine,omitempty"`
	Cores         int    `json:"cores,omitempty"`
	Strategy      string `json:"strategy,omitempty"`
	Interval      int    `json:"interval,omitempty"`
	WRFGrid       [2]int `json:"wrf_grid,omitempty"`
	AnalysisRanks int    `json:"analysis_ranks,omitempty"`
	MaxNests      int    `json:"max_nests,omitempty"`
	Distributed   bool   `json:"distributed,omitempty"`
	// ScheduleSteps is the length the genesis schedule is generated for;
	// Steps is where a round stops (track-distributed replays the first
	// 600 steps of track-serial's 2400-step schedule).
	ScheduleSteps int `json:"schedule_steps,omitempty"`
	Steps         int `json:"steps,omitempty"`

	// churn
	Sets     int `json:"sets,omitempty"`
	RefCores int `json:"ref_cores,omitempty"`

	// ckpt
	CkptEvery   int     `json:"ckpt_every,omitempty"`
	MaxDeltas   int     `json:"max_deltas,omitempty"`
	VerifySteps int     `json:"verify_steps,omitempty"`
	SpawnRate   float64 `json:"spawn_rate,omitempty"`

	// fleet
	Workers           int `json:"workers,omitempty"`
	JobSteps          int `json:"job_steps,omitempty"`
	WarmupJobs        int `json:"warmup_jobs,omitempty"`
	WindowJobs        int `json:"window_jobs,omitempty"`
	ViewerStepDelayMS int `json:"viewer_step_delay_ms,omitempty"`
	PollMS            int `json:"poll_ms,omitempty"`
	ReadRateHz        int `json:"read_rate_hz,omitempty"`

	// Gates says which of this workload's metrics each end-to-end metric of
	// BENCHMARK.json stands for here. BENCHMARK.json's driver needs every
	// one of its metrics on every workload, so its names are
	// workload-neutral; a BENCHMARK.json metric without an entry is the
	// workload's metric of the same name (setup_s, peak_rss_mb).
	Gates map[string]gate `json:"gates"`

	Smoke *workloadSpec `json:"smoke,omitempty"`
}

// gate binds one BENCHMARK.json metric to a metric of the workload. The
// bound BENCHMARK.json gives the former is the latter's bound, in the suite
// and under `compare` too.
type gate struct {
	Metric string `json:"metric"`
	// AcrossSeeds names the form of Metric that BENCHMARK.json's driver
	// sees. It compares runs of different seeds, and where the generated
	// weather decides how many grid points a step updates the raw number
	// follows the seed; the per-million-grid-point form does not. Runs of
	// one seed (the suite) read the same on both forms. Empty: Metric.
	AcrossSeeds string `json:"across_seeds,omitempty"`
}

// metricSpec declares one end-to-end metric of the suite.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // lower | higher
	// Exact metrics come from the virtual-time model or a byte count and
	// must repeat bit-for-bit on the same inputs; they have no bound.
	Exact     bool     `json:"exact,omitempty"`
	Workloads []string `json:"workloads"`
	What      string   `json:"what"`
}

// benchmarkFile is BENCHMARK.json, strictly: unknown keys are an error.
// Its end_to_end list is the benchmark's one table of bounds.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []gateSpec `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// gateSpec is one end-to-end metric of BENCHMARK.json.
type gateSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSuite reads bench/suite.json and BENCHMARK.json from the module root
// and checks them against each other.
func loadSuite(root string) (*suiteFile, *benchmarkFile, error) {
	var s suiteFile
	var b benchmarkFile
	for path, dst := range map[string]any{
		filepath.Join(root, "bench", "suite.json"): &s,
		filepath.Join(root, "BENCHMARK.json"):      &b,
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(dst); err != nil {
			return nil, nil, fmt.Errorf("parse %s: %w", path, err)
		}
	}
	if err := s.validate(&b); err != nil {
		return nil, nil, fmt.Errorf("bench/suite.json against BENCHMARK.json: %w", err)
	}
	return &s, &b, nil
}

func (s *suiteFile) validate(b *benchmarkFile) error {
	if s.Rounds < 1 {
		return fmt.Errorf("rounds %d < 1", s.Rounds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(s.Metrics); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	names := map[string]bool{}
	for i, w := range s.Workloads {
		if !nameRE.MatchString(w.Name) || names[w.Name] {
			return fmt.Errorf("bad or duplicate workload name %q", w.Name)
		}
		names[w.Name] = true
		switch w.Kind {
		case "track", "churn", "ckpt", "fleet":
		default:
			return fmt.Errorf("workload %s: unknown kind %q", w.Name, w.Kind)
		}
		if i >= len(b.Workloads) || b.Workloads[i].Name != w.Name {
			return fmt.Errorf("workload %d is %s here and not in BENCHMARK.json", i, w.Name)
		}
	}
	if len(b.Workloads) != len(s.Workloads) {
		return fmt.Errorf("BENCHMARK.json has %d workloads, the suite %d", len(b.Workloads), len(s.Workloads))
	}
	seen := map[string]bool{}
	for _, m := range s.Metrics {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			return fmt.Errorf("bad or duplicate metric name %q", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			return fmt.Errorf("metric %s: needs a unit and better=lower|higher", m.Name)
		}
		for _, w := range m.Workloads {
			if !names[w] {
				return fmt.Errorf("metric %s names unknown workload %q", m.Name, w)
			}
		}
	}
	// Every timed metric of every workload has a bound: some BENCHMARK.json
	// metric gates it. A timing that cannot hold a bound is not end-to-end
	// here; it is reported per layer.
	for _, w := range s.Workloads {
		for _, m := range s.metricsFor(w.Name) {
			if _, ok := w.gateOf(b, m.Name); !m.Exact && !ok {
				return fmt.Errorf("%s: timed metric %s is gated by no BENCHMARK.json metric", w.Name, m.Name)
			}
		}
		for name := range w.Gates {
			if !b.has(name) {
				return fmt.Errorf("%s: gate %s is not an end-to-end metric of BENCHMARK.json", w.Name, name)
			}
		}
	}
	return nil
}

func (b *benchmarkFile) has(name string) bool {
	for _, g := range b.EndToEnd {
		if g.Name == name {
			return true
		}
	}
	return false
}

// gateOf returns the BENCHMARK.json metric that stands for the workload's
// metric `name`, and so bounds it.
func (w workloadSpec) gateOf(b *benchmarkFile, name string) (gateSpec, bool) {
	for _, g := range b.EndToEnd {
		source := g.Name
		if bound, ok := w.Gates[g.Name]; ok {
			source = bound.Metric
		}
		if source == name {
			return g, true
		}
	}
	return gateSpec{}, false
}

// sized returns the spec a run uses: the declared shape, with the smoke
// overrides laid on top when smoke is set.
func (w workloadSpec) sized(smoke bool) workloadSpec {
	if !smoke || w.Smoke == nil {
		w.Smoke = nil
		return w
	}
	o := *w.Smoke
	w.Smoke = nil
	set := func(dst *int, v int) {
		if v != 0 {
			*dst = v
		}
	}
	set(&w.Rounds, o.Rounds)
	set(&w.ScheduleSteps, o.ScheduleSteps)
	set(&w.Steps, o.Steps)
	set(&w.Sets, o.Sets)
	set(&w.JobSteps, o.JobSteps)
	set(&w.WarmupJobs, o.WarmupJobs)
	set(&w.WindowJobs, o.WindowJobs)
	return w
}

// metricsFor returns the end-to-end metrics a workload reports, in
// declaration order.
func (s *suiteFile) metricsFor(workload string) []metricSpec {
	var out []metricSpec
	for _, m := range s.Metrics {
		for _, w := range m.Workloads {
			if w == workload {
				out = append(out, m)
			}
		}
	}
	return out
}
