package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

const resultSchema = "nestbench/1"

// hostInfo is the host block of the output: numbers are only comparable
// between files whose host blocks agree.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

func readHost() hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// metricResult is one end-to-end metric of one workload.
type metricResult struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Gate is the BENCHMARK.json metric that stands for this one on this
	// workload, and Bound is that metric's bound; an exact metric has
	// neither.
	Gate  string  `json:"gate,omitempty"`
	Bound float64 `json:"bound,omitempty"`
	Exact bool    `json:"exact,omitempty"`
	// Median is the median over rounds; Spread is (max−min)/median over
	// rounds; Samples is the number of rounds.
	Median  float64   `json:"median"`
	Spread  float64   `json:"spread"`
	Samples int       `json:"samples"`
	Rounds  []float64 `json:"rounds"`
}

// layerResult is one per-layer metric: a probe, a count, or a share. Moves
// names the end-to-end metric (and workload) it is predicted to move.
type layerResult struct {
	Layer    string  `json:"layer"`
	Name     string  `json:"name"`
	Workload string  `json:"workload,omitempty"`
	Unit     string  `json:"unit"`
	Median   float64 `json:"median"`
	Spread   float64 `json:"spread"`
	Samples  int     `json:"samples"`
	Moves    string  `json:"moves,omitempty"`
}

type workloadResult struct {
	Name         string         `json:"name"`
	Why          string         `json:"why"`
	Rounds       int            `json:"rounds"`
	OpsAttempted int            `json:"ops_attempted"`
	OpsFailed    int            `json:"ops_failed"`
	Digest       string         `json:"digest"`
	EndToEnd     []metricResult `json:"end_to_end"`
	FailedChecks []string       `json:"failed_checks,omitempty"`
}

// benchResult is bench/out/BENCH.json.
type benchResult struct {
	Schema    string           `json:"schema"`
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Rounds    int              `json:"rounds"`
	Smoke     bool             `json:"smoke"`
	Correct   bool             `json:"correct"`
	Workloads []workloadResult `json:"workloads"`
	PerLayer  []layerResult    `json:"per_layer"`
	// Ratios are the numbers that show the workloads discriminate:
	// distributed/serial step time, 1024/256-core apply time.
	Ratios map[string]float64 `json:"ratios"`
	// TopCosts is the self-time table of the traced pass, per workload.
	TopCosts []spanCost `json:"top_costs,omitempty"`
}

func (b *benchResult) workload(name string) *workloadResult {
	for i := range b.Workloads {
		if b.Workloads[i].Name == name {
			return &b.Workloads[i]
		}
	}
	return nil
}

func (w *workloadResult) metric(name string) *metricResult {
	for i := range w.EndToEnd {
		if w.EndToEnd[i].Name == name {
			return &w.EndToEnd[i]
		}
	}
	return nil
}

func (b *benchResult) write(path string) error {
	raw, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResult(path string) (*benchResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchResult
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if b.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, b.Schema, resultSchema)
	}
	return &b, nil
}

// print writes every metric by name with unit, median, spread, sample
// count and bound.
func (b *benchResult) print(w io.Writer) {
	h := b.Host
	fmt.Fprintf(w, "nestbench  seed=%d rounds=%d smoke=%v  host: %s, nproc=%d GOMAXPROCS=%d %s commit=%s\n\n",
		b.Seed, b.Rounds, b.Smoke, h.CPUModel, h.NProc, h.GoMaxProcs, h.GoVersion, h.Commit)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tMETRIC\tUNIT\tMEDIAN\tSPREAD\tN\tBOUND")
	for _, wl := range b.Workloads {
		for _, m := range wl.EndToEnd {
			bound := fmt.Sprintf("%.0f%% (%s)", 100*m.Bound, m.Gate)
			if m.Exact {
				bound = "exact"
			}
			arrow := "↓"
			if m.Better == "higher" {
				arrow = "↑"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s %s\t%.6g\t%.1f%%\t%d\t%s\n", wl.Name, m.Name, m.Unit, arrow, m.Median, 100*m.Spread, m.Samples, bound)
		}
		fmt.Fprintf(tw, "%s\tops_attempted / ops_failed\tcount\t%d / %d\t\t\t\n", wl.Name, wl.OpsAttempted, wl.OpsFailed)
		fmt.Fprintf(tw, "%s\tdigest\t\t%s\t\t\t\n", wl.Name, wl.Digest)
	}
	tw.Flush()

	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "LAYER\tMETRIC\tUNIT\tMEDIAN\tSPREAD\tN\tMOVES")
	for _, l := range b.PerLayer {
		name := l.Name
		if l.Workload != "" {
			name += "." + l.Workload
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.1f%%\t%d\t%s\n", l.Layer, name, l.Unit, l.Median, 100*l.Spread, l.Samples, l.Moves)
	}
	tw.Flush()

	fmt.Fprintln(w)
	keys := make([]string, 0, len(b.Ratios))
	for k := range b.Ratios {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "ratio %-44s %.3g\n", k, b.Ratios[k])
	}
	for _, wl := range b.Workloads {
		for _, c := range wl.FailedChecks {
			fmt.Fprintf(w, "FAILED CHECK %s: %s\n", wl.Name, c)
		}
	}
	fmt.Fprintf(w, "\ncorrect=%v\n", b.Correct)
}
