package fleet

import (
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"nestdiff/internal/elastic"
	"nestdiff/internal/obs"
	"nestdiff/internal/service"
)

// metrics holds the handles of the controller's metric table; newMetrics
// is the one place a nestctl metric is declared. Fleet-wide simulation
// metrics are not mirrored here — every scrape sums them live from the
// workers' /statz, so the controller never becomes a stale cache of worker
// truth.
type metrics struct {
	reg  *obs.Registry
	last atomic.Pointer[FleetStats] // the latest fan-out, read by the func-backed families

	jobsPlaced, placementFailures, rejectedSaturated, adoptions, adoptionFailures    *obs.Counter
	workersDead, workersDeregistered, proxyErrors, resizesObserved, autoscaleResizes *obs.Counter
	migrations, migrationFailures, drains, fencesIssued, reconciles                  *obs.Counter
	walRecords, walTruncations, walFailures, walCompactions                          *obs.Counter

	autoscale elastic.AutoscalerCounters
}

// rollupRenames lists the worker families whose fleet-wide sum predates
// the nestctl_fleet_<name> rule and keeps its old name.
var rollupRenames = map[string]string{
	"nestserved_tile_cache_hits_total":      "nestctl_tile_cache_hits_total",
	"nestserved_tile_cache_misses_total":    "nestctl_tile_cache_misses_total",
	"nestserved_tile_cache_evictions_total": "nestctl_tile_cache_evictions_total",
	"nestserved_tile_cache_bytes_total":     "nestctl_tile_cache_bytes",
	"nestserved_workers":                    "nestctl_fleet_worker_slots",
}

func newMetrics() *metrics {
	r := new(obs.Registry)
	m := &metrics{reg: r}
	m.last.Store(&FleetStats{})
	r.Func(obs.TypeGauge, "nestctl_fleet_workers_live", "Workers currently passing liveness.", func() int64 { return int64(m.last.Load().WorkersLive) })
	r.Func(obs.TypeGauge, "nestctl_fleet_workers_total", "Workers ever registered (live and dead).", func() int64 { return int64(m.last.Load().WorkersTotal) })
	r.Func(obs.TypeGauge, "nestctl_fleet_workers_unreachable", "Live workers whose stats fetch failed this scrape.", func() int64 { return int64(m.last.Load().UnreachableWorkers) })
	m.jobsPlaced = r.Counter("nestctl_fleet_jobs_placed_total", "Jobs placed onto workers by the controller.")
	m.placementFailures = r.Counter("nestctl_fleet_placement_failures_total", "Placements rejected or unreachable at the worker.")
	m.rejectedSaturated = r.Counter("nestctl_fleet_jobs_rejected_total", "Submissions shed with 429 by fleet admission.")
	m.adoptions = r.Counter("nestctl_fleet_adoptions_total", "Jobs adopted by survivors after a worker death.")
	m.adoptionFailures = r.Counter("nestctl_fleet_adoption_failures_total", "Adoption attempts that failed (retried each sweep).")
	m.workersDead = r.Counter("nestctl_fleet_workers_dead_total", "Workers declared dead after missing the liveness deadline.")
	m.workersDeregistered = r.Counter("nestctl_fleet_workers_deregistered_total", "Workers that left cleanly via deregister.")
	m.proxyErrors = r.Counter("nestctl_fleet_proxy_errors_total", "Job API proxy calls that failed at the worker.")
	m.migrations = r.Counter("nestctl_fleet_migrations_total", "Placements moved by join-rebalance or drain handoff.")
	m.migrationFailures = r.Counter("nestctl_fleet_migration_failures_total", "Migrations aborted with the job resumed in place.")
	m.drains = r.Counter("nestctl_fleet_drains_total", "Drain requests accepted.")
	m.fencesIssued = r.Counter("nestctl_fleet_fences_issued_total", "Fence commands issued to workers holding stale job copies.")
	m.reconciles = r.Counter("nestctl_fleet_placements_reconciled_total", "Placements reconciled to a worker reporting a higher epoch (lost-reply recovery).")
	m.walRecords = r.Counter("nestctl_fleet_wal_records_total", "Placement WAL records appended or replayed.")
	m.walTruncations = r.Counter("nestctl_fleet_wal_truncations_total", "Corrupt placement WAL tail lines dropped at startup.")
	m.walFailures = r.Counter("nestctl_fleet_wal_failures_total", "Placement WAL opens or appends that failed.")
	m.walCompactions = r.Counter("nestctl_fleet_wal_compactions_total", "Placement WAL snapshot+truncate passes completed.")
	m.resizesObserved = r.Counter("nestctl_fleet_resizes_observed_total", "Placement core counts reconciled after worker-side resizes.")
	m.autoscaleResizes = r.Counter("nestctl_fleet_autoscale_resizes_total", "Resize commands issued by the fleet autoscaler.")
	m.autoscale = elastic.AutoscalerCounters{
		Grows:    r.Counter("nestctl_fleet_autoscale_grows_total", "Autoscaler grow decisions applied."),
		Shrinks:  r.Counter("nestctl_fleet_autoscale_shrinks_total", "Autoscaler shrink decisions applied."),
		Failures: r.Counter("nestctl_fleet_autoscale_failures_total", "Autoscaler resize commands that failed at the worker."),
	}
	obs.LabelGauge(r, "nestctl_fleet_jobs", "Jobs across live workers by state.", "state", service.States(), func() map[service.JobState]int { return m.last.Load().Jobs })
	// The roll-up: every scalar family a worker declares, summed over the
	// live workers under nestctl_fleet_<name> (or its entry above).
	for _, d := range service.MetricFamilies() {
		name, renamed := rollupRenames[d.Name]
		if !renamed {
			name = "nestctl_fleet_" + strings.TrimPrefix(d.Name, "nestserved_")
		}
		r.Func(d.Type, name, "Sum over live workers: "+d.Help, func() int64 { return m.last.Load().workerSums[d.Name] })
	}
	return m
}

// FleetStats is the body of GET /statz: the placement table, membership
// and the per-state, queue and slot sums over live workers as structured
// keys, and under Counters every scalar family of /metrics by name — the
// controller's own counters and the worker roll-up.
type FleetStats struct {
	WorkersLive  int `json:"workers_live"`
	WorkersTotal int `json:"workers_total"`
	// UnreachableWorkers counts live workers whose /statz fetch failed
	// (their share is missing from every sum).
	UnreachableWorkers int `json:"unreachable_workers"`
	// Placements is the full placement table (id, worker, state, epoch,
	// adoptions) — the durable state a WAL replay must reproduce exactly,
	// which is why /statz carries it verbatim.
	Placements    []placement              `json:"placements"`
	Jobs          map[service.JobState]int `json:"jobs"`
	QueueDepth    int                      `json:"queue_depth"`
	QueueCapacity int                      `json:"queue_capacity"`
	WorkerSlots   int                      `json:"worker_slots"`
	Counters      map[string]int64         `json:"counters"`

	workerSums map[string]int64 // live workers' Counters, summed key-wise
}

// Stats fans out to every live worker's /statz and folds the results into
// one fleet-wide view.
func (c *Controller) Stats() FleetStats {
	fs := FleetStats{
		WorkersTotal: len(c.reg.all()),
		Placements:   c.Placements(),
		Jobs:         make(map[service.JobState]int),
		workerSums:   make(map[string]int64),
	}
	for _, w := range c.reg.live() {
		fs.WorkersLive++
		var ws service.WorkerStats
		reached := !c.linkDown(w.ID)
		if reached {
			_, err := c.call(http.MethodGet, w.URL+"/statz", nil, 0, &ws)
			reached = err == nil
		}
		if !reached {
			fs.UnreachableWorkers++
			continue
		}
		for state, n := range ws.Jobs {
			fs.Jobs[state] += n
		}
		fs.QueueDepth += ws.QueueDepth
		fs.QueueCapacity += ws.QueueCapacity
		fs.WorkerSlots += ws.Workers
		for name, v := range ws.Counters {
			fs.workerSums[name] += v
		}
	}
	view := fs
	c.metrics.last.Store(&view)
	fs.Counters = c.metrics.reg.Snapshot()
	return fs
}

// WritePrometheus renders the fleet-wide view, as of a fresh fan-out, in
// Prometheus text exposition format.
func (c *Controller) WritePrometheus(w io.Writer) {
	c.Stats()
	c.metrics.reg.WritePrometheus(w)
}
