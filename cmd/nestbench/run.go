package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// roundRecord is one finished round: which generated input (episode) it
// replayed and what it measured.
type roundRecord struct {
	episode int
	out     roundOut
}

// runner owns one benchmark run: the suite, one driver per selected
// workload, and every round's output.
type runner struct {
	suite   *suiteFile
	bench   *benchmarkFile
	smoke   bool
	specs   []workloadSpec
	drivers map[string]driver
	env     env
	plain   map[string][]roundRecord // untraced rounds: end-to-end metrics come from these
	traced  map[string][]roundRecord // traced rounds: spans, phase shares, tracing overhead
	probes  []layerResult
}

// newRunner sizes the suite's workloads (smoke or full), keeps the ones
// `only` selects (comma-separated names; empty: all) and builds their
// drivers.
func newRunner(suite *suiteFile, bench *benchmarkFile, smoke bool, only string, seed int64, workDir string) (*runner, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	r := &runner{
		suite:   suite,
		bench:   bench,
		smoke:   smoke,
		drivers: map[string]driver{},
		env:     env{seed: seed, workDir: workDir},
		plain:   map[string][]roundRecord{},
		traced:  map[string][]roundRecord{},
	}
	selected := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		if name != "" {
			selected[name] = true
		}
	}
	for _, w := range suite.Workloads {
		if len(selected) > 0 && !selected[w.Name] {
			continue
		}
		spec := w.sized(smoke)
		if spec.Rounds == 0 {
			spec.Rounds = suite.Rounds
		}
		d, err := newDriver(spec)
		if err != nil {
			return nil, err
		}
		r.specs = append(r.specs, spec)
		r.drivers[spec.Name] = d
	}
	if len(r.specs) == 0 {
		return nil, fmt.Errorf("no workload named %q in the suite", only)
	}
	return r, nil
}

func (r *runner) runRound(spec workloadSpec, episode int, traced bool) error {
	if traced && r.env.rec != nil {
		r.env.rec.workload = spec.Name
	}
	out, err := r.drivers[spec.Name].round(&r.env, episode, traced)
	if err != nil {
		return fmt.Errorf("%s round: %w", spec.Name, err)
	}
	dst := r.plain
	if traced {
		dst = r.traced
	}
	dst[spec.Name] = append(dst[spec.Name], roundRecord{episode: episode, out: out})
	return nil
}

// schedule says which rounds a run makes. The suite and a BENCHMARK.json
// run differ in nothing else: the same rounds, folded by the same code.
type schedule struct {
	// episodes is how many generated inputs the rounds cycle through:
	// round k replays episode k mod episodes.
	episodes int
	// more reports whether the workload runs a round k.
	more func(spec workloadSpec, k int) bool
	// paired follows every round with a traced round of the same episode,
	// so the two differ only in the tracing.
	paired bool
}

// rounds runs the schedule interleaved: round k of every selected workload
// before round k+1 of any.
func (r *runner) rounds(s schedule, progress func(string)) error {
	for k := 0; ; k++ {
		ran := false
		for _, spec := range r.specs {
			if !s.more(spec, k) {
				continue
			}
			ran = true
			progress(fmt.Sprintf("round %d %s", k+1, spec.Name))
			if err := r.runRound(spec, k%s.episodes, false); err != nil {
				return err
			}
			if s.paired {
				if err := r.runRound(spec, k%s.episodes, true); err != nil {
					return err
				}
			}
		}
		if !ran {
			return nil
		}
	}
}

// runSuite is the one-command mode: R interleaved untraced rounds, each
// replaying the identical generated input, then one traced round per
// workload, then the per-layer probes.
func (r *runner) runSuite(rounds int, progress func(string)) error {
	for i := range r.specs {
		if rounds > 0 {
			r.specs[i].Rounds = rounds
		}
	}
	every := schedule{episodes: 1, more: func(spec workloadSpec, k int) bool { return k < spec.Rounds }}
	if err := r.rounds(every, progress); err != nil {
		return err
	}
	r.env.rec = newRecorder()
	for _, spec := range r.specs {
		progress("traced round " + spec.Name)
		if err := r.runRound(spec, 0, true); err != nil {
			return err
		}
	}
	progress("per-layer probes")
	budget := 150 * time.Millisecond
	if r.smoke {
		budget = 5 * time.Millisecond
	}
	res, err := runProbes(r, budget)
	r.probes = res
	return err
}

// metricValues pulls one metric's per-round values (and their episodes)
// out of a workload's rounds. A name the rounds' values do not have is
// looked up among the per-layer side numbers.
func metricValues(recs []roundRecord, name string) (values []float64, episodes []int) {
	for _, rec := range recs {
		v, ok := rec.out.values[name]
		if !ok {
			v, ok = rec.out.layer[name]
		}
		if ok {
			values = append(values, v)
			episodes = append(episodes, rec.episode)
		}
	}
	return values, episodes
}

// assemble folds a workload's untraced rounds into its result and runs
// the cross-round output checks: same episode ⇒ same digest, and exact
// metrics identical.
func (r *runner) assemble(spec workloadSpec) workloadResult {
	recs := r.plain[spec.Name]
	res := workloadResult{Name: spec.Name, Why: spec.Why, Rounds: len(recs)}
	digests := map[int]string{}
	for _, rec := range append(append([]roundRecord(nil), recs...), r.traced[spec.Name]...) {
		res.OpsAttempted += rec.out.attempted
		res.OpsFailed += rec.out.failed
		res.FailedChecks = append(res.FailedChecks, rec.out.checks...)
		if rec.out.digest == "" {
			continue
		}
		if d, ok := digests[rec.episode]; ok && d != rec.out.digest {
			res.OpsFailed++
			res.FailedChecks = append(res.FailedChecks, fmt.Sprintf("episode %d: digest %s in one round, %s in another", rec.episode, d, rec.out.digest))
		}
		digests[rec.episode] = rec.out.digest
		if res.Digest == "" {
			res.Digest = rec.out.digest
		}
	}
	for _, m := range r.suite.metricsFor(spec.Name) {
		values, episodes := metricValues(recs, m.Name)
		g, _ := spec.gateOf(r.bench, m.Name) // exact metrics have none
		mr := metricResult{Name: m.Name, Unit: m.Unit, Better: m.Better, Gate: g.Name, Bound: g.Bound, Exact: m.Exact,
			Samples: len(values), Rounds: values}
		if len(values) != len(recs) || len(values) == 0 {
			res.OpsFailed++
			res.FailedChecks = append(res.FailedChecks, fmt.Sprintf("metric %s: %d values from %d rounds", m.Name, len(values), len(recs)))
		} else {
			mr.Median = aggregate(values, episodes)
			mr.Spread = spread(values)
		}
		if m.Exact {
			first := map[int]float64{}
			for i, v := range values {
				if f, ok := first[episodes[i]]; ok && f != v {
					res.OpsFailed++
					res.FailedChecks = append(res.FailedChecks, fmt.Sprintf("exact metric %s: %v in one round, %v in another", m.Name, f, v))
					break
				}
				first[episodes[i]] = v
			}
		}
		res.EndToEnd = append(res.EndToEnd, mr)
	}
	return res
}

// layerRows turns the side numbers of a workload's rounds into per-layer
// rows: round-scoped ones from the untraced rounds, traced-scoped ones
// from the traced round, the tracing overhead from the difference of the
// two, and the tail of every timing.
func (r *runner) layerRows(spec workloadSpec) []layerResult {
	var rows []layerResult
	add := func(ls layerSpec, recs []roundRecord) {
		values, _ := metricValues(recs, ls.Name)
		if len(values) == 0 {
			return
		}
		rows = append(rows, layerResult{Layer: ls.Layer, Name: ls.Name, Workload: spec.Name, Unit: ls.Unit,
			Median: median(values), Spread: spread(values), Samples: len(values), Moves: ls.Moves})
	}
	for _, ls := range layerCatalog {
		switch ls.Scope {
		case scopeRound:
			add(ls, r.plain[spec.Name])
		case scopeTraced:
			add(ls, r.traced[spec.Name])
		}
	}
	if pct, ok := r.traceOverhead(spec); ok {
		rows = append(rows, layerResult{Layer: "obs", Name: "obs.trace_overhead_pct", Workload: spec.Name, Unit: "%",
			Median: pct, Samples: len(r.traced[spec.Name]), Moves: "steps_per_s"})
	}
	// The tail of every timing, under the name the suite reports it by (an
	// across-seeds form is the same steps seen through another unit).
	derived := map[string]bool{}
	for _, g := range spec.Gates {
		derived[g.AcrossSeeds] = true
	}
	pooled := map[string][]float64{}
	for _, rec := range r.plain[spec.Name] {
		for name, xs := range rec.out.samples {
			if !derived[name] {
				pooled[name] = append(pooled[name], xs...)
			}
		}
	}
	names := make([]string, 0, len(pooled))
	for name := range pooled {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if t := tailOf(pooled[name]); t != nil {
			rows = append(rows, layerResult{Layer: "tail", Name: name + ".tail", Workload: spec.Name, Unit: "ms",
				Median: t.Value, Samples: t.Samples, Moves: fmt.Sprintf("p%g of %s", t.Percentile, name)})
		}
	}
	return rows
}

// throughputGate is the BENCHMARK.json metric every workload's throughput
// stands behind.
const throughputGate = "ops_per_s"

// traceOverhead is how much slower the traced rounds ran than the
// untraced ones, in percent of the workload's throughput metric.
func (r *runner) traceOverhead(spec workloadSpec) (float64, bool) {
	name := spec.Gates[throughputGate].Metric
	plain, pe := metricValues(r.plain[spec.Name], name)
	traced, te := metricValues(r.traced[spec.Name], name)
	if len(plain) == 0 || len(traced) == 0 {
		return 0, false
	}
	base := aggregate(plain, pe)
	return 100 * (base - aggregate(traced, te)) / base, true
}

// result assembles the whole run.
func (r *runner) result(host hostInfo, smoke bool) *benchResult {
	b := &benchResult{Schema: resultSchema, Host: host, Seed: r.env.seed, Rounds: r.suite.Rounds, Smoke: smoke,
		Correct: true, Ratios: map[string]float64{}}
	for _, spec := range r.specs {
		w := r.assemble(spec)
		if w.OpsFailed > 0 || len(w.FailedChecks) > 0 {
			b.Correct = false
		}
		b.Workloads = append(b.Workloads, w)
		b.PerLayer = append(b.PerLayer, r.layerRows(spec)...)
	}
	b.PerLayer = append(b.PerLayer, r.probes...)
	sort.SliceStable(b.PerLayer, func(i, j int) bool { return b.PerLayer[i].Layer < b.PerLayer[j].Layer })
	b.TopCosts = r.env.rec.costs()

	// The two ratios that show the workloads stress different layers.
	med := func(workload, metric string) float64 {
		if w := b.workload(workload); w != nil {
			if m := w.metric(metric); m != nil {
				return m.Median
			}
		}
		return 0
	}
	if s, d := med("track-serial", "step_p50_ms"), med("track-distributed", "step_p50_ms"); s > 0 && d > 0 {
		b.Ratios["step_p50_ms track-distributed / track-serial"] = d / s
	}
	if spec, ok := r.sizedSpec("realloc-churn"); ok {
		ref, _ := metricValues(r.plain[spec.Name], "core.apply_ref_p50_ms")
		if big := med(spec.Name, "adapt_p50_ms"); big > 0 && len(ref) > 0 {
			b.Ratios[fmt.Sprintf("adapt_p50_ms realloc-churn p%d / p%d", spec.Cores, spec.RefCores)] = big / median(ref)
		}
	}
	return b
}
