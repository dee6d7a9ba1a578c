package main

// metricSpec mirrors one entry of BENCHMARK.json; TestBenchmarkJSONMatches
// keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndSpecs are reported by every workload with tracing off. An epoch,
// a call and a target mean, per workload:
//
//	mlp_*       epoch = one pass over the dataset plus its evaluation
//	            call  = one cannikin.TrainMLP / ring of TrainMLPWorker calls
//	            target = first epoch whose full-dataset accuracy reaches the
//	                     workload's fixed threshold
//	serve_jobs  epoch = one "epoch" NDJSON line of a job's stream (gaps by the
//	                    service's own "elapsed" stamps)
//	            call  = POST /jobs followed by GET /jobs/{id}/stream
//	            target = the terminal "done" state line
//	plan_sim    epoch = one simulated epoch planned by cannikin.Train
//	            call  = one cannikin.Train run
//	            target = the run returning Converged
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"epochs_per_s", "1/s", "higher", 0.25},
	{"epoch_ms_p50", "ms", "lower", 0.25},
	{"epoch_ms_p90", "ms", "lower", 0.25},
	{"first_epoch_ms_p50", "ms", "lower", 0.25},
	{"time_to_target_s", "s", "lower", 0.25},
}

// perLayerSpecs are reported by the traced pass. A metric whose layer is
// not on a workload's path reads 0 there.
var perLayerSpecs = []metricSpec{
	// Workload-native views of the end-to-end numbers: metrics only one
	// workload family has, which the every-workload end-to-end list cannot
	// carry (see README "Demoted metrics").
	{"mlp.samples_per_s", "1/s", "higher", 0},
	{"mlp.epochs_to_target", "count", "lower", 0},
	{"serve.jobs_per_s", "1/s", "higher", 0},
	{"serve.admit_ms_p50", "ms", "lower", 0},
	{"serve.admit_ms_p95", "ms", "lower", 0},
	{"serve.first_epoch_ms_p95", "ms", "lower", 0},
	{"serve.job_ms_p50", "ms", "lower", 0},
	{"sim.plan_ms_per_epoch_p99", "ms", "lower", 0},
	{"sim.converge_s", "s", "lower", 0},

	{"tensor.matmul_us", "us", "lower", 0},
	{"tensor.mulbt_us", "us", "lower", 0},
	{"tensor.addmulat_us", "us", "lower", 0},
	{"tensor.flops_per_step", "count", "lower", 0},
	{"tensor.gflops", "GFLOP/s", "higher", 0},

	{"nn.forward_us", "us", "lower", 0},
	{"nn.loss_us", "us", "lower", 0},
	{"nn.backward_us", "us", "lower", 0},
	{"nn.optim_us", "us", "lower", 0},
	{"nn.eval_ms", "ms", "lower", 0},
	{"nn.self_us", "us", "lower", 0},

	{"runtime.pre_us", "us", "lower", 0},
	{"runtime.backprop_us", "us", "lower", 0},
	{"runtime.post_us", "us", "lower", 0},
	{"runtime.comm_busy_us", "us", "lower", 0},
	{"runtime.comm_exposed_us", "us", "lower", 0},
	{"runtime.overlap_gamma", "ratio", "lower", 0},
	{"runtime.straggler_gap_us", "us", "lower", 0},
	{"runtime.stage_us", "us", "lower", 0},
	{"runtime.step_ms", "ms", "lower", 0},
	{"runtime.driver_self_us", "us", "lower", 0},
	{"runtime.alloc_bytes_per_step", "B", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.single_worker_samples_per_s", "1/s", "higher", 0},
	{"runtime.scaling_efficiency", "ratio", "higher", 0},

	{"gns.estimate_us", "us", "lower", 0},

	{"allreduce.reduce_us_p50", "us", "lower", 0},
	{"allreduce.calls_per_step", "count", "lower", 0},
	{"allreduce.bytes_per_step", "B", "lower", 0},
	{"allreduce.gbps", "GB/s", "higher", 0},

	{"transport.reduce_us_p50", "us", "lower", 0},
	{"transport.tax_us", "us", "lower", 0},
	{"transport.bytes_per_step", "B", "lower", 0},
	{"transport.msgs_per_step", "count", "lower", 0},
	{"transport.writes_per_step", "count", "lower", 0},
	{"transport.msgs_per_write", "ratio", "higher", 0},
	{"transport.wire_overhead_ratio", "ratio", "lower", 0},

	{"runspec.decode_us", "us", "lower", 0},

	{"jobs.submit_us", "us", "lower", 0},
	{"jobs.dispatch_us", "us", "lower", 0},
	{"jobs.queue_wait_ms_p50", "ms", "lower", 0},
	{"jobs.queue_wait_ms_p95", "ms", "lower", 0},
	{"jobs.queue_depth_max", "count", "lower", 0},
	{"jobs.plan_events_per_job", "count", "lower", 0},
	{"jobs.goodput_edge", "ratio", "higher", 0},

	{"server.submit_handler_us", "us", "lower", 0},
	{"server.status_handler_us", "us", "lower", 0},
	{"server.stream_event_us", "us", "lower", 0},
	{"server.http_tax_us", "us", "lower", 0},
	{"server.submit_resp_bytes", "B", "lower", 0},

	{"optperf.solve_us", "us", "lower", 0},
	{"optperf.plan_all_us", "us", "lower", 0},
	{"optperf.cache_hit_ratio", "ratio", "higher", 0},

	{"perfmodel.observe_us", "us", "lower", 0},
	{"perfmodel.end_epoch_us_h10", "us", "lower", 0},
	{"perfmodel.end_epoch_us_h100", "us", "lower", 0},
	{"perfmodel.model_us_h10", "us", "lower", 0},
	{"perfmodel.model_us_h100", "us", "lower", 0},

	{"trainer.overhead_fraction", "ratio", "lower", 0},
	{"trainer.epochs_to_converge", "count", "lower", 0},
	{"trainer.wall_ms_per_run", "ms", "lower", 0},

	{"trace_overhead_pct", "%", "lower", 0},
	// How much slower than nominal the host ran during the traced windows
	// (calibrate.go). Per-layer figures are raw wall clock; this is the
	// factor to discount them by.
	{"host.slowdown", "ratio", "lower", 0},
}

var (
	endToEndByName = specIndex(endToEndSpecs)
	perLayerByName = specIndex(perLayerSpecs)
)

func specIndex(specs []metricSpec) map[string]metricSpec {
	m := make(map[string]metricSpec, len(specs))
	for _, s := range specs {
		m[s.Name] = s
	}
	return m
}
