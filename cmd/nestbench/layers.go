package main

// Where a per-layer metric's value comes from.
const (
	// scopeProbe: a harness-timed call into one exported function, on
	// inputs captured from a workload; the same whatever workload runs.
	scopeProbe = "probe"
	// scopeRound: observed on the side of a workload's untraced rounds
	// (counts, byte sizes, scraped counters). Workloads that do not
	// exercise the layer report nothing (0 in the contract output).
	scopeRound = "round"
	// scopeTraced: read from the traced round (obs.Tracer phase sums).
	scopeTraced = "traced"
	// scopeDerived: computed by the runner from other numbers.
	scopeDerived = "derived"
	// scopeCarried: an end-to-end metric of the suite that a BENCHMARK.json
	// run carries per layer (carriedPerLayer).
	scopeCarried = "carried"
)

// layerSpec declares one per-layer metric. Layer is the module name;
// Moves names the end-to-end metric (@workload) it is predicted to move,
// "≠" where the prediction is no change.
type layerSpec struct {
	Name   string
	Layer  string
	Unit   string
	Better string
	Scope  string
	Moves  string
}

// layerCatalog is every per-layer metric the benchmark reports, in the
// order of the modules from kernels up to the fleet. BENCHMARK.json's
// per_layer list is this catalog (a test keeps them equal).
var layerCatalog = []layerSpec{
	{"field.advect_ns_per_cell", "field", "ns", "lower", scopeProbe, "step_p50_ms, steps_per_s @track-serial; ≠ realloc-churn"},
	{"field.advect_gbps_computed", "field", "GB/s", "higher", scopeProbe, "computed bytes (2×8 B per cell), not measured traffic"},
	{"field.deposit_us", "field", "us", "lower", scopeProbe, "step_p50_ms @track-serial"},

	{"wrfsim.model_step_us", "wrfsim", "us", "lower", scopeProbe, "step_p50_ms @track-serial"},
	{"wrfsim.nest_step_us", "wrfsim", "us", "lower", scopeProbe, "step_p50_ms @track-serial (nests ≈ half a job)"},
	{"wrfsim.splits_us", "wrfsim", "us", "lower", scopeProbe, "adapt_p50_ms @both tracks"},
	{"wrfsim.pnest_step_us", "wrfsim", "us", "lower", scopeProbe, "step_p50_ms @track-distributed; ≠ track-serial"},
	{"wrfsim.pnest_redistribute_us", "wrfsim", "us", "lower", scopeProbe, "adapt_p50_ms @track-distributed; ≠ track-serial"},

	{"mpi.run_dispatch_us.r16", "mpi", "us", "lower", scopeProbe, "adapt_p50_ms @track-serial (PDA world)"},
	{"mpi.run_dispatch_us.r256", "mpi", "us", "lower", scopeProbe, "step_p50_ms, steps_per_s @track-distributed"},
	{"mpi.sendrecv_pingpong_us", "mpi", "us", "lower", scopeProbe, "step_p50_ms @track-distributed (halo exchange)"},
	{"mpi.alltoallv_into_us.r64", "mpi", "us", "lower", scopeProbe, "adapt_p50_ms @track-distributed"},
	{"mpi.barrier_us.r64", "mpi", "us", "lower", scopeProbe, "step_p50_ms @track-distributed; ≠ realloc-churn, ckpt-cycle"},
	{"mpi.allocs_per_run", "mpi", "count", "lower", scopeProbe, "steps_per_s @track-distributed"},

	{"pda.run_parallel_us", "pda", "us", "lower", scopeProbe, "adapt_p50_ms @both tracks; ≠ realloc-churn"},
	{"pda.clusters_per_call", "pda", "count", "lower", scopeProbe, "work done per PDA call"},

	{"alloc.scratch_us", "alloc", "us", "lower", scopeProbe, "adapt_p50_ms, adapts_per_s @realloc-churn"},
	{"alloc.diffusion_us", "alloc", "us", "lower", scopeProbe, "adapt_p50_ms, adapts_per_s @realloc-churn (htree reorganisation)"},
	{"redist.build_plan_us", "redist", "us", "lower", scopeProbe, "adapt_p50_ms @realloc-churn"},
	{"redist.measure_us", "redist", "us", "lower", scopeProbe, "adapt_p50_ms @realloc-churn"},
	{"topology.alltoallv_time_us", "topology", "us", "lower", scopeProbe, "adapt_p50_ms @realloc-churn"},
	{"perfmodel.predict_ns", "perfmodel", "ns", "lower", scopeProbe, "adapt_p50_ms @realloc-churn"},
	{"redist.bytes_moved", "redist", "bytes", "lower", scopeRound, "redist_model_s, hop_bytes_avg"},
	{"redist.messages", "redist", "count", "lower", scopeRound, "redist_model_s"},
	{"redist.overlap_pct", "redist", "%", "higher", scopeRound, "redist_model_s (paper Fig. 11)"},

	{"core.tracker_apply_us.scratch.p256", "core", "us", "lower", scopeProbe, "small on tracks"},
	{"core.tracker_apply_us.diffusion.p256", "core", "us", "lower", scopeProbe, "adapt_p50_ms @both tracks (small)"},
	{"core.tracker_apply_us.dynamic.p256", "core", "us", "lower", scopeProbe, "baseline of the p1024/p256 ratio"},
	{"core.tracker_apply_us.scratch.p1024", "core", "us", "lower", scopeProbe, "adapt_p50_ms @realloc-churn"},
	{"core.tracker_apply_us.diffusion.p1024", "core", "us", "lower", scopeProbe, "adapt_p50_ms @realloc-churn"},
	{"core.tracker_apply_us.dynamic.p1024", "core", "us", "lower", scopeProbe, "adapt_p50_ms, adapts_per_s @realloc-churn"},
	{"core.apply_ref_p50_ms", "core", "ms", "lower", scopeRound, "the workload's own sets on the reference grid size"},
	{"core.dynamic_correct_pct", "core", "%", "higher", scopeRound, "dynamic_regret_pct @realloc-churn"},
	{"core.adaptations", "core", "count", "higher", scopeRound, "adaptation points executed per round"},
	{"core.step_allocs", "core", "count", "lower", scopeRound, "steps_per_s @tracks (MemStats delta / steps)"},
	{"core.step_alloc_bytes", "core", "bytes", "lower", scopeRound, "steps_per_s @tracks (MemStats delta / steps)"},
	{"core.ckpt_cut_p50_ms", "core", "ms", "lower", scopeRound, "Encode + WriteFileAtomic, all cuts; demoted from end-to-end (bench/README.md)"},
	{"core.ckpt_encode_full_us", "core", "us", "lower", scopeRound, "ckpt_encode_p50_ms @ckpt-cycle (one cut in nine)"},
	{"core.ckpt_encode_delta_us", "core", "us", "lower", scopeRound, "ckpt_encode_p50_ms @ckpt-cycle"},
	{"core.ckpt_full_bytes", "core", "bytes", "lower", scopeRound, "ckpt_bytes_per_cut @ckpt-cycle"},
	{"core.ckpt_delta_bytes", "core", "bytes", "lower", scopeRound, "ckpt_bytes_per_cut @ckpt-cycle"},
	{"core.write_atomic_us", "core", "us", "lower", scopeRound, "core.ckpt_cut_p50_ms @ckpt-cycle (fsync)"},
	{"core.restore_decode_ms", "core", "ms", "lower", scopeRound, "restore_p50_ms @ckpt-cycle (base only)"},
	{"core.restore_replay_ms", "core", "ms", "lower", scopeRound, "restore_p50_ms @ckpt-cycle; falls when steps_per_s @track-serial rises"},
	{"core.share.model", "core", "share", "lower", scopeTraced, "share of measured step time"},
	{"core.share.nests", "core", "share", "lower", scopeTraced, "share of measured step time"},
	{"core.share.pda", "core", "share", "lower", scopeTraced, "share of measured step time"},
	{"core.share.realloc", "core", "share", "lower", scopeTraced, "share of measured step time"},
	{"core.share.reconcile", "core", "share", "lower", scopeTraced, "share of measured step time"},
	{"core.share.other", "core", "share", "lower", scopeTraced, "step time the phases do not cover"},
	{"core.share.sum", "core", "share", "higher", scopeTraced, "must be 1.00 ± 0.05"},
	{"core.scaling_eff.gomaxprocs", "core", "ratio", "higher", scopeProbe, "track-serial speed-up at nproc over GOMAXPROCS=1, per core"},

	{"service.job_overhead_ms", "service", "ms", "lower", scopeProbe, "job_p50_ms, steps_per_s @serve-fleet; ≠ tracks"},
	{"service.submit_us", "service", "us", "lower", scopeProbe, "job_p50_ms @serve-fleet"},
	{"service.steps_executed", "service", "count", "higher", scopeRound, "scraped /metrics delta"},
	{"service.auto_checkpoints", "service", "count", "lower", scopeRound, "scraped /metrics delta"},
	{"service.ckpt_bytes", "service", "bytes", "lower", scopeRound, "scraped /metrics delta"},
	{"service.ckpt_persist_p50_us", "service", "us", "lower", scopeRound, "scraped checkpoint_duration_seconds p50"},
	{"service.job_share.steps", "service", "share", "lower", scopeTraced, "share of job_p50_ms @serve-fleet spent in Pipeline.Step"},
	{"service.job_share.build", "service", "share", "lower", scopeTraced, "share of job latency building the run"},
	{"service.job_share.observe", "service", "share", "lower", scopeTraced, "share of job latency folding progress into the snapshot"},
	{"service.job_share.checkpoint", "service", "share", "lower", scopeTraced, "share of job latency cutting auto-checkpoints"},
	{"service.job_share.other", "service", "share", "lower", scopeTraced, "queue wait, HTTP, proxy and poll granularity"},

	{"fleet.proxy_overhead_us", "fleet", "us", "lower", scopeTraced, "job_p50_ms, read_*_p50_ms @serve-fleet (paired GET via nestctl vs direct)"},
	{"fleet.submit_ms", "fleet", "ms", "lower", scopeRound, "job_p50_ms @serve-fleet (POST /jobs round trip)"},
	{"fleet.wal_records", "fleet", "count", "lower", scopeRound, "scraped /metrics delta"},

	{"serve.encode_tile_us", "serve", "us", "lower", scopeProbe, "read_cold_p50_ms @serve-fleet"},
	{"serve.build_response_cold_us", "serve", "us", "lower", scopeProbe, "read_cold_p50_ms @serve-fleet"},
	{"serve.build_response_warm_ns", "serve", "ns", "lower", scopeProbe, "read_warm_p50_ms @serve-fleet"},
	{"serve.cache_hit_pct", "serve", "%", "higher", scopeRound, "read_warm_p50_ms @serve-fleet (scraped)"},
	{"serve.reader_lateness_p50_ms", "serve", "ms", "lower", scopeRound, "how late the open-loop reader ran"},
	{"serve.read_warm_p50_ms", "serve", "ms", "lower", scopeRound, "repeat read of an already-seen step, from its due time; demoted from end-to-end (bench/README.md)"},

	{"obs.trace_overhead_pct", "obs", "%", "lower", scopeDerived, "traced vs untraced throughput; ≤ 1 % always-on budget"},
	{"obs.emit_disabled_ns", "obs", "ns", "lower", scopeProbe, "steps_per_s everywhere (nil-tracer check)"},

	{"core.redist_model_s", "core", "s", "lower", scopeCarried, "paper Table IV; exact for a given seed"},
	{"redist.hop_bytes_avg", "redist", "hops", "lower", scopeCarried, "paper Fig. 10; exact for a given seed"},
	{"core.dynamic_regret_pct", "core", "%", "lower", scopeCarried, "paper §V-F; exact for a given seed"},
	{"core.ckpt_bytes_per_cut", "core", "bytes", "lower", scopeCarried, "exact for a given seed"},
	{"tail.primary_ms", "tail", "ms", "lower", scopeDerived, "highest percentile of primary_p50_ms's samples with ≥ 10 beyond it (BENCHMARK.json runs; the suite has <metric>.tail)"},
	{"tail.secondary_ms", "tail", "ms", "lower", scopeDerived, "highest percentile of secondary_p50_ms's samples with ≥ 10 beyond it"},
}

// procGrid is the sweep of the tracker probes over processor-grid size,
// the axis the reallocation literature evaluates against; the catalog's
// .p256 and .p1024 rows are its values.
var procGrid = [2]int{256, 1024}

// carriedPerLayer maps a per-layer name to the suite's end-to-end metric
// it carries. These are exact for a given seed and differ between seeds,
// so a BENCHMARK.json run, whose driver compares runs of different seeds,
// reports them per layer, unbounded; the suite reports them end to end and
// `compare` checks them by equality.
var carriedPerLayer = map[string]string{
	"core.redist_model_s":     "redist_model_s",
	"redist.hop_bytes_avg":    "hop_bytes_avg",
	"core.dynamic_regret_pct": "dynamic_regret_pct",
	"core.ckpt_bytes_per_cut": "ckpt_bytes_per_cut",
}
