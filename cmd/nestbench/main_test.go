package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const inProcess = "track-serial,track-distributed,realloc-churn,ckpt-cycle"

// smokeRunner sizes the repository's suite for tests.
func smokeRunner(t *testing.T, only string, seed int64) *runner {
	t.Helper()
	suite, bench, err := loadSuite(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRunner(suite, bench, true, only, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// smokeResult runs the suite at smoke size on the given workloads.
func smokeResult(t *testing.T, only string) *benchResult {
	t.Helper()
	r := smokeRunner(t, only, 2607)
	if err := r.runSuite(0, func(string) {}); err != nil {
		t.Fatal(err)
	}
	return r.result(readHost(), true)
}

// checkResult validates the output schema: names, units, limits, and that
// nothing failed.
func checkResult(t *testing.T, b *benchResult) {
	t.Helper()
	if !b.Correct {
		for _, w := range b.Workloads {
			for _, c := range w.FailedChecks {
				t.Errorf("%s: failed check: %s", w.Name, c)
			}
		}
		t.Fatal("result is not correct")
	}
	if b.Schema != resultSchema || b.Host.NProc < 1 || b.Host.GoVersion == "" {
		t.Errorf("schema %q host %+v", b.Schema, b.Host)
	}
	if len(b.Workloads) > 8 || len(b.PerLayer) > 128 {
		t.Errorf("%d workloads, %d per-layer rows: over the limits", len(b.Workloads), len(b.PerLayer))
	}
	for _, w := range b.Workloads {
		if !nameRE.MatchString(w.Name) || w.Why == "" || w.Digest == "" {
			t.Errorf("workload %+v: bad name, no why or no digest", w.Name)
		}
		if w.OpsAttempted < 1 || w.OpsFailed != 0 {
			t.Errorf("%s: ops attempted %d failed %d", w.Name, w.OpsAttempted, w.OpsFailed)
		}
		if len(w.EndToEnd) == 0 || len(w.EndToEnd) > 16 {
			t.Errorf("%s: %d end-to-end metrics", w.Name, len(w.EndToEnd))
		}
		for _, m := range w.EndToEnd {
			if !nameRE.MatchString(m.Name) || m.Unit == "" || m.Samples < 1 || len(m.Rounds) != m.Samples {
				t.Errorf("%s/%s: unit %q samples %d rounds %d", w.Name, m.Name, m.Unit, m.Samples, len(m.Rounds))
			}
			if !(m.Median > 0) && m.Name != "dynamic_regret_pct" {
				t.Errorf("%s/%s: median %v", w.Name, m.Name, m.Median)
			}
			if m.Exact == (m.Bound > 0) || m.Exact == (m.Gate != "") {
				t.Errorf("%s/%s: exact %v, bound %v of gate %q", w.Name, m.Name, m.Exact, m.Bound, m.Gate)
			}
		}
	}
	for _, l := range b.PerLayer {
		if !nameRE.MatchString(l.Name) || l.Unit == "" || l.Layer == "" || l.Samples < 1 {
			t.Errorf("per-layer row %+v: bad name, unit, layer or sample count", l)
		}
		if math.IsNaN(l.Median) || math.IsInf(l.Median, 0) {
			t.Errorf("per-layer %s: median %v", l.Name, l.Median)
		}
	}
}

func TestSuiteSmokeInProcess(t *testing.T) {
	b := smokeResult(t, inProcess)
	checkResult(t, b)
	if len(b.Workloads) != 4 {
		t.Fatalf("%d workloads, want the 4 in-process ones", len(b.Workloads))
	}

	// Every end-to-end metric the suite declares for a workload is there.
	suite := smokeRunner(t, inProcess, 2607).suite
	for _, w := range b.Workloads {
		for _, m := range suite.metricsFor(w.Name) {
			if w.metric(m.Name) == nil {
				t.Errorf("%s: metric %s missing", w.Name, m.Name)
			}
		}
	}

	// The layer budget sums: phase shares of both track workloads add up
	// to the step time measured from outside, within 5 %.
	for _, name := range []string{"track-serial", "track-distributed"} {
		sum, parts := 0.0, 0.0
		for _, l := range b.PerLayer {
			if l.Workload != name || !strings.HasPrefix(l.Name, "core.share.") {
				continue
			}
			if l.Name == "core.share.sum" {
				sum = l.Median
			} else {
				parts += l.Median
			}
		}
		if math.Abs(sum-1) > 0.05 || math.Abs(parts-sum) > 1e-9 {
			t.Errorf("%s: shares add to %.4f, core.share.sum %.4f, want 1.00 ± 0.05", name, parts, sum)
		}
	}

	// Every probe of the catalog reported, under its module's name.
	have := map[string]bool{}
	for _, l := range b.PerLayer {
		have[l.Name] = true
		if l.Layer != "tail" && !strings.HasPrefix(l.Name, l.Layer+".") {
			t.Errorf("per-layer %s is filed under layer %s", l.Name, l.Layer)
		}
	}
	for _, ls := range layerCatalog {
		if ls.Scope == scopeProbe && !have[ls.Name] {
			t.Errorf("probe %s did not report", ls.Name)
		}
	}
	for _, k := range []string{"step_p50_ms track-distributed / track-serial", "adapt_p50_ms realloc-churn p1024 / p256"} {
		if !(b.Ratios[k] > 1) {
			t.Errorf("ratio %q = %v, want > 1: the workloads no longer discriminate", k, b.Ratios[k])
		}
	}

	// A result agrees with itself, survives a round trip through its file,
	// and a planted regression is seen.
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := b.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := compareResults(b, back); !ok {
		t.Error("a result does not agree with its own file")
	}
	m := back.workload("realloc-churn").metric("redist_model_s")
	m.Median *= 1.0001
	if _, _, ok := compareResults(b, back); ok {
		t.Error("compare missed a changed exact metric")
	}
}

func TestSuiteSmokeServeFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the nestctl and nestserved binaries")
	}
	b := smokeResult(t, "serve-fleet")
	checkResult(t, b)
	for _, name := range []string{"job_p50_ms", "read_cold_p50_ms", "peak_rss_mb", "steps_per_s", "setup_s"} {
		if b.Workloads[0].metric(name) == nil {
			t.Errorf("serve-fleet: metric %s missing", name)
		}
	}
	warm := false
	for _, l := range b.PerLayer {
		warm = warm || l.Name == "serve.read_warm_p50_ms"
	}
	if !warm {
		t.Error("serve-fleet: the demoted serve.read_warm_p50_ms is not reported per layer")
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := metricResult{Name: "x_ms", Unit: "ms", Better: "lower", Bound: 0.10, Median: 100, Spread: 0.02, Rounds: []float64{99, 100, 101}}
	for _, tc := range []struct {
		name   string
		edit   func(*metricResult)
		expect string
	}{
		{"same", func(m *metricResult) {}, verdictWithin},
		{"slower", func(m *metricResult) { m.Median, m.Rounds = 115, []float64{114, 115, 116} }, verdictWorse},
		{"faster", func(m *metricResult) { m.Median, m.Rounds = 80, []float64{79, 80, 81} }, verdictBetter},
		{"noisy", func(m *metricResult) { m.Median, m.Spread, m.Rounds = 115, 0.3, []float64{95, 115, 130} }, verdictUnresolved},
		{"noisy but every round better", func(m *metricResult) { m.Median, m.Spread, m.Rounds = 70, 0.3, []float64{60, 70, 81} }, verdictBetter},
	} {
		b := base
		tc.edit(&b)
		if _, got := compareMetric(base, b); got != tc.expect {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.expect)
		}
	}
	up := base
	up.Better = "higher"
	faster := up
	faster.Median, faster.Rounds = 120, []float64{119, 120, 121}
	if change, got := compareMetric(up, faster); got != verdictBetter || change >= 0 {
		t.Errorf("higher-is-better: change %v verdict %q", change, got)
	}
	// A spread wider than the bound does not excuse a median that moved
	// past it: the files do not agree, whichever way the noise points.
	noisy := base
	noisy.Median, noisy.Spread, noisy.Rounds = 115, 0.3, []float64{95, 115, 130}
	file := func(m metricResult) *benchResult {
		return &benchResult{Workloads: []workloadResult{{Name: "w", OpsAttempted: 1, EndToEnd: []metricResult{m}}}}
	}
	if _, _, ok := compareResults(file(base), file(noisy)); ok {
		t.Error("compare agrees although an unresolved median is 15 % worse against a 10 % bound")
	}
	noisy.Median = 105
	if _, _, ok := compareResults(file(base), file(noisy)); !ok {
		t.Error("compare disagrees over an unresolved median that moved less than its bound")
	}
	exact := metricResult{Name: "bytes", Exact: true, Median: 7}
	other := exact
	if _, got := compareMetric(exact, other); got != verdictEqual {
		t.Errorf("exact equal: %q", got)
	}
	other.Median = 8
	if _, got := compareMetric(exact, other); got != verdictDiffers {
		t.Errorf("exact differing: %q", got)
	}
}

func TestStats(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || quantile(xs, 0) != 1 || quantile(xs, 1) != 5 || quantile(xs, 0.25) != 2 {
		t.Errorf("quantiles of %v: %v %v %v %v", xs, median(xs), quantile(xs, 0), quantile(xs, 1), quantile(xs, 0.25))
	}
	if got := spread(xs); got != 4.0/3 {
		t.Errorf("spread %v", got)
	}
	if tailOf(make([]float64, 19)) != nil {
		t.Error("19 samples have a tail")
	}
	if tl := tailOf(make([]float64, 20)); tl == nil || tl.Percentile != 50 {
		t.Errorf("20 samples: tail %+v, want p50", tl)
	}
	if tl := tailOf(make([]float64, 1000)); tl == nil || tl.Percentile != 99 {
		t.Errorf("1000 samples: tail %+v, want p99", tl)
	}
	// Two replays of episode 0, one each of 1 and 2: median within, median across.
	if got := aggregate([]float64{10, 30, 12, 90}, []int{0, 1, 0, 2}); got != 30 {
		t.Errorf("aggregate %v", got)
	}
	if subSeed(1, 2, 3) != subSeed(1, 2, 3) || subSeed(1, 2, 3) == subSeed(1, 3, 2) || subSeed(0) == 0 {
		t.Error("subSeed is not a deterministic non-zero function of its path")
	}
}

func TestBenchmarkJSONMatchesTheBenchmark(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	// loadSuite has checked the workloads and the gates against the suite.
	bf := smokeRunner(t, inProcess, 2607).bench
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(bf.Command) == 0 || len(bf.Command) > 32 || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("command %v run_seconds %d", bf.Command, bf.RunSeconds)
	}
	if len(bf.Paths) != 2 || bf.Paths[0] != "cmd/nestbench" || bf.Paths[1] != "bench" {
		t.Errorf("paths %v, want [cmd/nestbench bench]", bf.Paths)
	}
	// 4 + 22 × workloads runs must fit the driver's 3420 s with room for
	// two builds and each run's set-up and checks.
	if runs := 4 + 22*len(bf.Workloads); float64(runs)*(float64(bf.RunSeconds)+5) > 3420-240 {
		t.Errorf("%d runs of %d s (+5 s each) leave no room for two builds in 3420 s", runs, bf.RunSeconds)
	}
	for _, w := range bf.Workloads {
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters on one line?", w.Name, len(w.Why))
		}
	}

	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Fatalf("%d end-to-end metrics", n)
	}
	setup := bf.EndToEnd[0]
	for _, m := range bf.EndToEnd {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s [%s] %s", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setup.Bound {
			t.Errorf("end_to_end %s: bound %v, want in (0, 0.25] and at most setup_s's %v", m.Name, m.Bound, setup.Bound)
		}
	}
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("first metric %+v, want setup_s in s, lower", setup)
	}

	if len(layerCatalog) > 128 {
		t.Fatalf("%d per-layer metrics, limit 128", len(layerCatalog))
	}
	if len(bf.PerLayer) != len(layerCatalog) {
		t.Fatalf("%d per-layer metrics, the catalog has %d", len(bf.PerLayer), len(layerCatalog))
	}
	seen := map[string]bool{}
	for i, m := range bf.PerLayer {
		ls := layerCatalog[i]
		if m.Name != ls.Name || m.Unit != ls.Unit || m.Better != ls.Better {
			t.Errorf("per_layer %d: %s [%s] %s, the catalog has %s [%s] %s", i, m.Name, m.Unit, m.Better, ls.Name, ls.Unit, ls.Better)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per_layer %s [%s]: bad or duplicate name, or bad unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
}

// TestContractLine runs both forms of the BENCHMARK.json command at smoke
// size and checks that the last line is the object the driver parses.
func TestContractLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		r := smokeRunner(t, "realloc-churn", 7)
		if err := contractMain(&out, r, 0.3, traced); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line struct {
			Correct   *bool                    `json:"correct"`
			Attempted *int                     `json:"attempted"`
			Failed    *int                     `json:"failed"`
			Metrics   map[string]contractValue `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace=%v: last line %q: %v", traced, lines[len(lines)-1], err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("trace=%v: correct/attempted/failed wrong in %s", traced, lines[len(lines)-1])
		}
		var want []string
		if traced {
			for _, ls := range layerCatalog {
				want = append(want, ls.Name)
			}
		} else {
			for _, g := range r.bench.EndToEnd {
				want = append(want, g.Name)
				if !(line.Metrics[g.Name].Value > 0) {
					t.Errorf("end-to-end %s = %v, must never be 0", g.Name, line.Metrics[g.Name].Value)
				}
			}
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics, want %d", traced, len(line.Metrics), len(want))
		}
		for _, name := range want {
			if v, ok := line.Metrics[name]; !ok || v.Unit == "" {
				t.Errorf("trace=%v: metric %s missing or without unit", traced, name)
			}
		}
		if traced && !(line.Metrics["core.tracker_apply_us.dynamic.p1024"].Value > 0 && line.Metrics["core.dynamic_regret_pct"].Value >= 0) {
			t.Errorf("traced churn run: apply probe %v", line.Metrics["core.tracker_apply_us.dynamic.p1024"])
		}
	}
}
