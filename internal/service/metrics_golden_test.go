package service

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// maskSamples replaces every sample value of a Prometheus text exposition
// with "V", keeping each # HELP, # TYPE and sample-name/label line in
// order: the surface a scraper or dashboard depends on, without the
// numbers a run produces.
func maskSamples(text string) string {
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines[i] = line[:strings.LastIndexByte(line, ' ')] + " V"
	}
	return strings.Join(lines, "\n")
}

// TestMetricsGoldenNestserved pins the worker's /metrics surface: every
// family, its HELP and TYPE, its sample names and their order. The golden
// was generated at the commit before the metric registry replaced the
// hand-written exposition and differs from that output in one deliberate
// line: nestserved_tile_cache_bytes_total is TYPE gauge (resident bytes
// fall on eviction), not counter. METRICS_GOLDEN_GEN=1 rewrites it.
func TestMetricsGoldenNestserved(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2})
	defer shutdownNow(t, s)
	rec := httptest.NewRecorder()
	NewHandler(s).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	got := maskSamples(rec.Body.String())

	const path = "testdata/metrics_nestserved.golden"
	if os.Getenv("METRICS_GOLDEN_GEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("/metrics line %d:\n got  %q\n want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("/metrics has %d lines, golden %d", len(gl), len(wl))
	}

	// The names cmd/nestbench scrapes over HTTP (cmd/nestbench/fleet.go):
	// the exposition text is its contract with the worker.
	for _, name := range []string{
		"nestserved_steps_executed_total V",
		"nestserved_auto_checkpoints_total V",
		"nestserved_checkpoint_bytes_total V",
		"nestserved_tile_cache_hits_total V",
		"nestserved_tile_cache_misses_total V",
		`nestserved_checkpoint_duration_seconds{quantile="0.5"} V`,
	} {
		if !strings.Contains("\n"+got, "\n"+name+"\n") {
			t.Errorf("/metrics lacks the sample nestbench scrapes: %s", name)
		}
	}
}

// TestMetricsGoldenStatzKeys pins the shape of GET /statz: the structured
// keys the controller's admission and roll-up read, plus one counters
// object that carries exactly the scalar families of /metrics by name.
func TestMetricsGoldenStatzKeys(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2})
	defer shutdownNow(t, s)
	rec := httptest.NewRecorder()
	NewHandler(s).ServeHTTP(rec, httptest.NewRequest("GET", "/statz", nil))
	var body map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(body))
	for k := range body {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"counters", "jobs", "queue_capacity", "queue_depth", "ready", "workers"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("/statz keys = %v, want %v", keys, want)
	}
	var counters map[string]int64
	if err := json.Unmarshal(body["counters"], &counters); err != nil {
		t.Fatal(err)
	}
	scalars := 0
	for _, d := range MetricFamilies() {
		scalars++
		if _, ok := counters[d.Name]; !ok {
			t.Errorf("/statz counters lack %s", d.Name)
		}
	}
	if len(counters) != scalars || scalars < 30 {
		t.Fatalf("/statz counters has %d keys, the metric table %d scalar families", len(counters), scalars)
	}
	if got := counters["nestserved_workers"]; got != 2 {
		t.Fatalf("counters[nestserved_workers] = %d, want 2", got)
	}
}
