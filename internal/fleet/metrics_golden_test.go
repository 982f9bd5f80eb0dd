package fleet

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"nestdiff/internal/service"
)

// maskSamples replaces every sample value of a Prometheus text exposition
// with "V", keeping each # HELP, # TYPE and sample-name/label line in
// order.
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

// families maps each metric family of an exposition to its TYPE.
func families(text string) map[string]string {
	out := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			out[f[2]] = f[3]
		}
	}
	return out
}

// TestMetricsGoldenNestctl pins the controller's /metrics surface with one
// idle worker registered. metrics_nestctl.golden is the whole masked
// exposition (METRICS_GOLDEN_GEN=1 rewrites it);
// metrics_nestctl_parent.golden is the exposition of the commit before the
// metric registry, whose every family must survive with its name and TYPE:
// the generic worker roll-up may add families, never rename or retype one.
func TestMetricsGoldenNestctl(t *testing.T) {
	_, ctlSrv := startController(t, Config{})
	startWorker(t, ctlSrv, "w1", service.SchedulerConfig{Workers: 2})
	got := maskSamples(fetchText(t, ctlSrv.URL+"/metrics"))

	const path = "testdata/metrics_nestctl.golden"
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

	parent, err := os.ReadFile("testdata/metrics_nestctl_parent.golden")
	if err != nil {
		t.Fatal(err)
	}
	have := families(got)
	for name, typ := range families(string(parent)) {
		if have[name] != typ {
			t.Errorf("family %s: TYPE %q, the pre-registry surface had %q", name, have[name], typ)
		}
	}
	// The one controller name cmd/nestbench scrapes (cmd/nestbench/fleet.go).
	if !strings.Contains("\n"+got, "\nnestctl_fleet_wal_records_total V\n") {
		t.Error("/metrics lacks nestctl_fleet_wal_records_total, which nestbench scrapes")
	}
}

// TestMetricsGoldenStatzKeys pins the shape of the controller's GET /statz:
// its structured keys, and a counters object keyed by /metrics name that
// holds the controller's own counters and the worker roll-up alike.
func TestMetricsGoldenStatzKeys(t *testing.T) {
	_, ctlSrv := startController(t, Config{})
	startWorker(t, ctlSrv, "w1", service.SchedulerConfig{Workers: 2})
	var body map[string]json.RawMessage
	fetchJSON(t, ctlSrv.URL+"/statz", &body)
	keys := make([]string, 0, len(body))
	for k := range body {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"counters", "jobs", "placements", "queue_capacity", "queue_depth",
		"unreachable_workers", "worker_slots", "workers_live", "workers_total"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("/statz keys = %v, want %v", keys, want)
	}
	var counters map[string]int64
	if err := json.Unmarshal(body["counters"], &counters); err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]int64{
		"nestctl_fleet_workers_live":      1,
		"nestctl_fleet_worker_slots":      2, // renamed roll-up of nestserved_workers
		"nestctl_fleet_jobs_placed_total": 0,
		"nestctl_fleet_jobs_fenced_total": 0,
		"nestctl_tile_cache_bytes":        0,
	} {
		if got, ok := counters[name]; !ok || got != v {
			t.Errorf("counters[%s] = %d (present %v), want %d", name, got, ok, v)
		}
	}
	for name, typ := range families(fetchText(t, ctlSrv.URL+"/metrics")) {
		if _, ok := counters[name]; !ok && name != "nestctl_fleet_jobs" {
			t.Errorf("/statz counters lack the %s %s", typ, name)
		}
	}
}
