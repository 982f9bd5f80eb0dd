package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// A BENCHMARK.json run (`--workload W --seed N --seconds S --trace 0|1`)
// is the suite's run of one workload under another schedule: rounds until
// S seconds are spent instead of R, cycling contractEpisodes generated
// inputs instead of one. It prints the workload's metrics under
// BENCHMARK.json's workload-neutral names (suite.json's `gates` say which
// is which), because that file's driver needs every metric on every
// workload.

// contractEpisodes is how many generated inputs a BENCHMARK.json run cycles
// through. Its driver compares runs of different seeds, so a run averages
// over several inputs to depend on its seed as little as its seconds
// allow; every input is replayed (and its digest re-checked) once the
// clock allows more rounds than episodes.
const contractEpisodes = 8

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the one JSON object a BENCHMARK.json run prints last.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

func contractMain(w io.Writer, r *runner, seconds float64, traced bool) error {
	spec := r.specs[0]
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()

	if traced {
		r.env.rec = newRecorder()
		// 8 ms of probing per probe and second of budget: about two
		// fifths of the run for the ~45 probes, the rest for the rounds.
		var err error
		if r.probes, err = runProbes(r, time.Duration(seconds*float64(8*time.Millisecond))); err != nil {
			return err
		}
	}
	// Rounds until the budget is spent: stop when the next round would
	// end further past the deadline than stopping now falls short of it.
	var prev time.Time
	untilSpent := schedule{episodes: contractEpisodes, paired: traced, more: func(_ workloadSpec, k int) bool {
		now := time.Now()
		last := now.Sub(prev)
		prev = now
		return k == 0 || now.Sub(start)+last/2 < budget
	}}
	if err := r.rounds(untilSpent, func(string) {}); err != nil {
		return err
	}

	res := r.assemble(spec)
	line := contractLine{
		Correct:   res.OpsFailed == 0 && len(res.FailedChecks) == 0,
		Attempted: res.OpsAttempted,
		Failed:    res.OpsFailed,
		Metrics:   map[string]contractValue{},
	}
	for _, c := range res.FailedChecks {
		fmt.Fprintf(os.Stderr, "nestbench: FAILED CHECK %s: %s\n", spec.Name, c)
	}
	if traced {
		r.contractLayers(spec, line.Metrics)
		if err := r.env.rec.write(filepath.Join(r.env.workDir, "trace."+spec.Name+".json")); err != nil {
			return err
		}
	} else if err := r.contractEndToEnd(spec, line.Metrics); err != nil {
		return err
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(raw))
	return err
}

// acrossSeeds is the name of the workload's metric that BENCHMARK.json's
// metric `name` prints: the gated metric in the form that runs of
// different seeds can be compared in.
func (spec workloadSpec) acrossSeeds(name string) string {
	g, ok := spec.Gates[name]
	switch {
	case !ok:
		return name
	case g.AcrossSeeds != "":
		return g.AcrossSeeds
	}
	return g.Metric
}

// contractEndToEnd fills BENCHMARK.json's end-to-end metrics from the
// workload's own.
func (r *runner) contractEndToEnd(spec workloadSpec, dst map[string]contractValue) error {
	recs := r.plain[spec.Name]
	for _, g := range r.bench.EndToEnd {
		name := spec.acrossSeeds(g.Name)
		values, episodes := metricValues(recs, name)
		if len(values) == 0 {
			return fmt.Errorf("%s: no value for %s (%s)", spec.Name, g.Name, name)
		}
		v := aggregate(values, episodes)
		if !(v > 0) {
			return fmt.Errorf("%s: %s (%s) measured %v, want a positive number", spec.Name, g.Name, name, v)
		}
		dst[g.Name] = contractValue{v, g.Unit}
	}
	return nil
}

// contractLayers fills every per-layer metric of the catalog: probes as
// measured, the workload's own side numbers where it has them, 0 where
// the workload does not exercise the layer.
func (r *runner) contractLayers(spec workloadSpec, dst map[string]contractValue) {
	for _, ls := range layerCatalog {
		dst[ls.Name] = contractValue{0, ls.Unit}
	}
	put := func(name string, v float64) {
		if cur, ok := dst[name]; ok {
			dst[name] = contractValue{v, cur.Unit}
		}
	}
	for _, row := range append(r.layerRows(spec), r.probes...) {
		put(row.Name, row.Median)
	}
	// The carried metrics are exact functions of the input: the first
	// round's (episode 0) is the value that repeats for a seed, however many
	// episodes the clock allowed.
	recs := r.plain[spec.Name]
	for layerName, suiteName := range carriedPerLayer {
		if values, _ := metricValues(recs[:min(1, len(recs))], suiteName); len(values) > 0 {
			put(layerName, values[0])
		}
	}
	for gateName, layerName := range map[string]string{"primary_p50_ms": "tail.primary_ms", "secondary_p50_ms": "tail.secondary_ms"} {
		var pooled []float64
		for _, rec := range recs {
			pooled = append(pooled, rec.out.samples[spec.acrossSeeds(gateName)]...)
		}
		if t := tailOf(pooled); t != nil {
			put(layerName, t.Value)
		}
	}
}
