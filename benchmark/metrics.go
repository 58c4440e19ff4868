//go:build linux

package main

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; bench_test.go holds the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the base median it may worsen by
}

// runSeconds is BENCHMARK.json's run_seconds, the default of -seconds.
const runSeconds = 16

// endToEnd is what a user of the library or the service sees. Every
// workload reports every one of them; the README says what each means on
// the library workloads and on the serve workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"solve_s", "s", "lower", 0.25},
	{"solve_cpu_s", "s", "lower", 0.25},
	{"jobs_per_min", "jobs/min", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"misfit_rel", "ratio", "lower", 0.01},
}

// perLayer is what the traced run reports, named <module>.<metric>. The
// serve.* rows are 0 on the library workloads, which start no daemon.
var perLayer = []metricDef{
	{Name: "fft.line_pow2_ns", Unit: "ns", Better: "lower"},
	{Name: "fft.line_bluestein_ns", Unit: "ns", Better: "lower"},
	{Name: "interp.point_ns", Unit: "ns", Better: "lower"},
	{Name: "pfft.plan_build_ms", Unit: "ms", Better: "lower"},
	{Name: "pfft.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "pfft.inverse_ms", Unit: "ms", Better: "lower"},
	{Name: "pfft.roundtrip3_ms", Unit: "ms", Better: "lower"},
	{Name: "pfft.alltoalls_per_fwd", Unit: "count", Better: "lower"},
	{Name: "pfft.wire_bytes_per_fwd", Unit: "bytes", Better: "lower"},
	{Name: "pfft.allocs_per_roundtrip", Unit: "count", Better: "lower"},
	{Name: "spectral.leray_ms", Unit: "ms", Better: "lower"},
	{Name: "spectral.invbiharm_ms", Unit: "ms", Better: "lower"},
	{Name: "spectral.grad_ms", Unit: "ms", Better: "lower"},
	{Name: "field.dot_ms", Unit: "ms", Better: "lower"},
	{Name: "field.axpy_ms", Unit: "ms", Better: "lower"},
	{Name: "mpi.sendrecv_us", Unit: "us", Better: "lower"},
	{Name: "mpi.sendrecv_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "mpi.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "semilag.departure_ms", Unit: "ms", Better: "lower"},
	{Name: "semilag.plan_build_ms", Unit: "ms", Better: "lower"},
	{Name: "semilag.plan_build_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "semilag.interp1_ms", Unit: "ms", Better: "lower"},
	{Name: "semilag.interp3_ms", Unit: "ms", Better: "lower"},
	{Name: "semilag.point_ns", Unit: "ns", Better: "lower"},
	{Name: "semilag.msgs_per_interp", Unit: "count", Better: "lower"},
	{Name: "semilag.bytes_per_interp", Unit: "bytes", Better: "lower"},
	{Name: "semilag.allocs_per_interp", Unit: "count", Better: "lower"},
	{Name: "transport.context_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.state_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.adjoint_ms", Unit: "ms", Better: "lower"},
	{Name: "regopt.evaluate_ms", Unit: "ms", Better: "lower"},
	{Name: "regopt.gradient_ms", Unit: "ms", Better: "lower"},
	{Name: "regopt.matvec_ms", Unit: "ms", Better: "lower"},
	{Name: "regopt.prec_ms", Unit: "ms", Better: "lower"},
	{Name: "optim.newton_iters", Unit: "count", Better: "lower"},
	{Name: "optim.matvecs", Unit: "count", Better: "lower"},
	{Name: "optim.cg_iters", Unit: "count", Better: "lower"},
	{Name: "optim.iter_ms", Unit: "ms", Better: "lower"},
	{Name: "core.ffts", Unit: "count", Better: "lower"},
	{Name: "core.interp_sweeps", Unit: "count", Better: "lower"},
	{Name: "core.interp_msgs", Unit: "count", Better: "lower"},
	{Name: "core.interp_bytes", Unit: "bytes", Better: "lower"},
	{Name: "core.fft_exec_s", Unit: "s", Better: "lower"},
	{Name: "core.interp_exec_s", Unit: "s", Better: "lower"},
	{Name: "core.fft_comm_model_s", Unit: "s", Better: "lower"},
	{Name: "core.interp_comm_model_s", Unit: "s", Better: "lower"},
	{Name: "core.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "core.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "core.allocs", Unit: "count", Better: "lower"},
	{Name: "core.epilogue_ms", Unit: "ms", Better: "lower"},
	{Name: "par.pool_speedup", Unit: "ratio", Better: "higher"},
	{Name: "serve.submit_ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.status_get_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_p50_s", Unit: "s", Better: "lower"},
	{Name: "serve.solve_p50_s", Unit: "s", Better: "lower"},
	{Name: "serve.overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.generator_late_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.journal_records", Unit: "count", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.failed", Unit: "count", Better: "lower"},
	{Name: "serve.retries_scheduled", Unit: "count", Better: "lower"},
	{Name: "serve.fused_jobs", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.kernel_coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.step_coverage", Unit: "ratio", Better: "higher"},
}

// unitOf returns the unit a metric is declared with.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
