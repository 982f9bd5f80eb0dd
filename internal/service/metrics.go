package service

import "nestdiff/internal/obs"

// metrics holds the handles of the worker's metric table. newMetrics is the
// one place a nestserved metric is declared: the registration yields the
// handle the scheduler increments, the family's lines on GET /metrics (in
// this order), its entry in the GET /statz counters, and — through the
// controller's generic roll-up — its fleet-wide sum on nestctl.
type metrics struct {
	reg *obs.Registry

	jobsSubmitted, jobsCompleted, jobsCancelled, jobsFailed, jobRetries, workerPanics *obs.Counter
	autoCheckpoints, checkpointFailures, stepsExecuted, adaptationEvents, redistBytes *obs.Counter
	pauses, resumes, jobsResized, resizeFailures, ledgerFailures, queueFullRejections *obs.Counter
	checkpointsRecovered, checkpointsCorrupt, jobsImported, jobsAdopted, jobsFenced   *obs.Counter
	checkpointsFenced, checkpointBytesTotal, fullCheckpoints, deltaCheckpoints        *obs.Counter
	checkpointAppends, checkpointsTruncated                                           *obs.Counter

	checkpointBytes *obs.Gauge // size of the most recent checkpoint chain
	// Always-on latency summaries (lock-free observes). Unlike the per-job
	// tracer, these cover every job, traced or not.
	stepDur, ckptDur, ckptEncodeDur, jobDur, resizeDur *obs.Histogram
}

// newMetrics declares the worker's metrics. The func-backed families read
// s when scraped, never at registration, so MetricFamilies can describe
// the table without a scheduler.
func newMetrics(s *Scheduler) *metrics {
	r := new(obs.Registry)
	m := &metrics{reg: r}
	obs.LabelGauge(r, "nestserved_jobs", "Number of jobs by lifecycle state.", "state", States(), s.CountsByState)
	r.Func(obs.TypeGauge, "nestserved_workers", "Worker-pool size.", func() int64 { return int64(s.cfg.Workers) })
	r.Func(obs.TypeGauge, "nestserved_jobs_running", "Jobs currently executing on the worker pool.", func() int64 { return int64(s.CountsByState()[StateRunning]) })
	r.Func(obs.TypeGauge, "nestserved_queue_depth", "Jobs waiting in the submit queue.", func() int64 { return int64(len(s.queue)) })
	r.Func(obs.TypeGauge, "nestserved_queue_capacity", "Submit queue capacity.", func() int64 { return int64(cap(s.queue)) })
	m.jobsSubmitted = r.Counter("nestserved_jobs_submitted_total", "Jobs accepted by the scheduler.")
	m.jobsCompleted = r.Counter("nestserved_jobs_completed_total", "Jobs that ran to completion.")
	m.jobsCancelled = r.Counter("nestserved_jobs_cancelled_total", "Jobs cancelled before completion.")
	m.jobsFailed = r.Counter("nestserved_jobs_failed_total", "Jobs that reached the failed state.")
	m.jobRetries = r.Counter("nestserved_job_retries_total", "Retry attempts scheduled after job failures.")
	m.workerPanics = r.Counter("nestserved_worker_panics_total", "Job panics recovered by the worker pool.")
	m.autoCheckpoints = r.Counter("nestserved_auto_checkpoints_total", "Periodic job checkpoints written cleanly.")
	m.checkpointFailures = r.Counter("nestserved_checkpoint_failures_total", "Checkpoint writes that failed (previous good checkpoint kept).")
	m.stepsExecuted = r.Counter("nestserved_steps_executed_total", "Parent simulation steps executed across all jobs.")
	m.adaptationEvents = r.Counter("nestserved_adaptation_events_total", "PDA invocations recorded as adaptation events.")
	m.redistBytes = r.Counter("nestserved_redist_bytes_moved_total", "Nest payload bytes moved across the modelled network by redistributions.")
	m.pauses = r.Counter("nestserved_job_pauses_total", "Pause transitions (checkpointed or queued).")
	m.resumes = r.Counter("nestserved_job_resumes_total", "Resume transitions from paused.")
	m.jobsResized = r.Counter("nestserved_job_resizes_total", "In-place processor-grid resizes applied at step boundaries.")
	m.resizeFailures = r.Counter("nestserved_job_resize_failures_total", "Resize attempts that failed cleanly (job kept its old size).")
	m.ledgerFailures = r.Counter("nestserved_trace_ledger_failures_total", "Trace ledgers that failed to open or append.")
	m.queueFullRejections = r.Counter("nestserved_queue_full_rejections_total", "Submits and resumes shed because the queue was full (HTTP 429).")
	m.checkpointsRecovered = r.Counter("nestserved_checkpoints_recovered_total", "Persisted checkpoints re-registered as paused jobs at startup.")
	m.checkpointsCorrupt = r.Counter("nestserved_checkpoints_corrupt_total", "Persisted checkpoints rejected as torn or corrupt.")
	m.jobsImported = r.Counter("nestserved_jobs_imported_total", "Jobs registered via import (recovery, adoption, migration).")
	m.jobsAdopted = r.Counter("nestserved_jobs_adopted_total", "Jobs adopted from the shared checkpoint store.")
	m.jobsFenced = r.Counter("nestserved_jobs_fenced_total", "Local job copies killed after their placement moved to another worker.")
	m.checkpointsFenced = r.Counter("nestserved_checkpoints_fenced_total", "Checkpoint writes refused because the store held a higher-epoch file.")
	m.checkpointBytesTotal = r.Counter("nestserved_checkpoint_bytes_total", "Encoded checkpoint bytes produced (full bases plus delta blobs).")
	m.fullCheckpoints = r.Counter("nestserved_full_checkpoints_total", "Checkpoints cut as full base blobs.")
	m.deltaCheckpoints = r.Counter("nestserved_delta_checkpoints_total", "Checkpoints cut as dirty-nest delta blobs.")
	m.checkpointAppends = r.Counter("nestserved_checkpoint_appends_total", "Delta blobs appended in place to checkpoint files (no rewrite).")
	m.checkpointsTruncated = r.Counter("nestserved_checkpoints_truncated_total", "Persisted chains recovered from a torn delta tail (longest intact prefix restored).")
	r.Func(obs.TypeCounter, "nestserved_tile_cache_hits_total", "Tile reads served from the quantized tile cache.", func() int64 { return s.tiles.Stats().Hits })
	r.Func(obs.TypeCounter, "nestserved_tile_cache_misses_total", "Tile reads that encoded a tile (cache miss).", func() int64 { return s.tiles.Stats().Misses })
	r.Func(obs.TypeCounter, "nestserved_tile_cache_evictions_total", "Tiles evicted to hold the cache byte budget.", func() int64 { return s.tiles.Stats().Evictions })
	// Resident bytes fall on eviction: a gauge, whatever the suffix says.
	r.Func(obs.TypeGauge, "nestserved_tile_cache_bytes_total", "Resident payload bytes currently held by the tile cache.", func() int64 { return s.tiles.Stats().Bytes })
	m.checkpointBytes = r.Gauge("nestserved_last_checkpoint_bytes", "Size of the most recent pause checkpoint.")
	m.stepDur = r.Summary("nestserved_step_duration_seconds", "Wall-clock duration of one parent simulation step.")
	m.ckptDur = r.Summary("nestserved_checkpoint_duration_seconds", "Wall-clock duration of one auto or pause checkpoint cut, end to end.")
	m.ckptEncodeDur = r.Summary("nestserved_checkpoint_encode_seconds", "Wall-clock duration of the checkpoint encode alone (binary codec plus delta planning).")
	m.jobDur = r.Summary("nestserved_job_duration_seconds", "Wall-clock duration of completed jobs, first run to done.")
	m.resizeDur = r.Summary("nestserved_resize_duration_seconds", "Wall-clock duration of one in-place processor-grid resize (excluding its anchor checkpoints).")
	return m
}

// MetricFamilies describes the worker's scalar metrics — the keys of
// WorkerStats.Counters — so the fleet controller can declare their sums
// without copying the table.
func MetricFamilies() []obs.Desc { return newMetrics(nil).reg.Scalars() }

// WorkerStats is the machine-readable slice of a worker's state the fleet
// controller consumes: the JSON body of GET /statz. Counters carries every
// scalar metric by its /metrics name; the controller sums them key-wise
// across live workers.
type WorkerStats struct {
	Workers       int              `json:"workers"`
	QueueDepth    int              `json:"queue_depth"`
	QueueCapacity int              `json:"queue_capacity"`
	Jobs          map[JobState]int `json:"jobs"`
	Ready         bool             `json:"ready"`
	Counters      map[string]int64 `json:"counters"`
}

// Stats snapshots the worker's aggregable state.
func (s *Scheduler) Stats() WorkerStats {
	return WorkerStats{
		Workers:       s.cfg.Workers,
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		Jobs:          s.CountsByState(),
		Ready:         s.Ready(),
		Counters:      s.metrics.reg.Snapshot(),
	}
}
