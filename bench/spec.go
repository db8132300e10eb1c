package main

// This file is the benchmark's vocabulary: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics with the
// end-to-end metric each is expected to move. BENCHMARK.json at the repo
// root repeats the names, units, directions and bounds; TestBenchmarkJSON
// keeps the two in step.

// metricSpec names one metric. Bound is set for end-to-end metrics only: the
// share of the parent's median by which the metric may worsen before a change
// counts as a regression. Moves is set for per-layer metrics only: the
// end-to-end metric (and workload) the layer metric should move.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the stack sees. Every workload reports every
// one of them; README.md says what an "operation" is on each workload. The
// host-time bounds are the widest the run contract allows: the sandbox this
// was measured on alternates, several times a second, between a fast state
// and one about 1.65x slower (a neighbour on the SMT sibling), and ten runs of
// one commit spread by 5-16 % (README.md, "Noise").
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "setup_heap_mb", Unit: "MB", Better: lower, Bound: 0.15},
	{Name: "op_ms_gm", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "tail_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "sim_cycles_gm", Unit: "cycles", Better: lower, Bound: 1e-9},
	{Name: "sim_energy_gm", Unit: "energy_units", Better: lower, Bound: 1e-9},
	{Name: "sim_peak_power_gm", Unit: "power_units", Better: lower, Bound: 1e-9},
}

// mopKinds are the meta-operator kinds the executor metrics are bucketed by.
var mopKinds = []string{"readrow", "readxb", "readcore", "writerow", "writexb", "mov", "movwindow", "dcom"}

const (
	movesCompile = "op_ms_gm, ops_per_s on compile-zoo"
	movesSim     = "sim_* on compile-zoo"
	movesSetup   = "setup_s on exec-*, serve-*"
	movesRun     = "op_ms_gm on exec-single; none on exec-batch"
	movesBatch   = "ops_per_s on exec-batch; none on exec-single, serve-http"
	movesServe   = "op_ms_gm, ops_per_s on serve-http"
	movesFleet   = "ops_per_s, tail_ms on serve-fleet"
	movesTail    = "none: the request tail, too noisy on a shared host for an end-to-end metric"
)

// perLayer lists the traced metrics, layer = module name.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	ms := []metricSpec{
		// Compiler passes (compile-zoo).
		{Name: "cimmlc.compile.self_ms", Unit: "ms", Better: lower, Moves: movesCompile},
		{Name: "cg.pass_ms", Unit: "ms", Better: lower, Moves: movesCompile},
		{Name: "mvm.pass_ms", Unit: "ms", Better: lower, Moves: movesCompile},
		{Name: "vvm.pass_ms", Unit: "ms", Better: lower, Moves: movesCompile},
		{Name: "mapping.pass_ms", Unit: "ms", Better: lower, Moves: movesCompile},
		{Name: "perfsim.pass_ms", Unit: "ms", Better: lower, Moves: movesCompile},
		{Name: "graph.nodes", Unit: "count", Better: lower, Moves: movesCompile},
		{Name: "cg.segments", Unit: "count", Better: lower, Moves: movesSim},
		{Name: "cg.dup_sum", Unit: "count", Better: higher, Moves: movesSim},
		{Name: "vvm.remap_sum", Unit: "count", Better: higher, Moves: movesSim},
		{Name: "mapping.xbs_used", Unit: "count", Better: lower, Moves: movesSim},
		{Name: "mapping.cores_used", Unit: "count", Better: lower, Moves: movesSim},
		{Name: "perfsim.reload_cycle_share", Unit: "ratio", Better: lower, Moves: movesSim},
		{Name: "perfsim.peak_active_xbs", Unit: "count", Better: lower, Moves: movesSim},
		{Name: "go.alloc_mb_per_pass", Unit: "MB", Better: lower, Moves: movesCompile},

		// Build stages (set-up of exec-* and serve-*).
		{Name: "cimmlc.build.compile_ms", Unit: "ms", Better: lower, Moves: movesSetup},
		{Name: "codegen.lower_ms", Unit: "ms", Better: lower, Moves: movesSetup},
		{Name: "funcsim.new_image_ms", Unit: "ms", Better: lower, Moves: movesSetup},
		{Name: "funcsim.program_init_ms", Unit: "ms", Better: lower, Moves: movesSetup},
		{Name: "funcsim.compile_body_ms", Unit: "ms", Better: lower, Moves: movesSetup},
		{Name: "cimmlc.build.self_ms", Unit: "ms", Better: lower, Moves: movesSetup},
		{Name: "codegen.mops", Unit: "count", Better: lower, Moves: movesRun},
	}
	for _, k := range mopKinds {
		ms = append(ms, metricSpec{Name: "codegen.mops." + k, Unit: "count", Better: lower, Moves: movesRun})
	}
	ms = append(ms,
		metricSpec{Name: "funcsim.mem_words", Unit: "count", Better: lower, Moves: "setup_heap_mb on exec-*, serve-*"},

		// Per-request executor (exec-single).
		metricSpec{Name: "funcsim.reset_us", Unit: "us", Better: lower, Moves: movesRun},
		metricSpec{Name: "funcsim.load_inputs_us", Unit: "us", Better: lower, Moves: movesRun},
		metricSpec{Name: "funcsim.run_body_us", Unit: "us", Better: lower, Moves: movesRun},
		metricSpec{Name: "funcsim.settle_us", Unit: "us", Better: lower, Moves: movesRun},
		metricSpec{Name: "funcsim.extract_us", Unit: "us", Better: lower, Moves: movesRun},
		metricSpec{Name: "cimmlc.program.run_self_us", Unit: "us", Better: lower, Moves: movesRun},
	)
	for _, k := range mopKinds {
		ms = append(ms, metricSpec{Name: "funcsim.mop." + k + "_us", Unit: "us", Better: lower, Moves: movesRun})
	}
	ms = append(ms,
		metricSpec{Name: "cimmlc.pool.hit_ratio", Unit: "ratio", Better: higher, Moves: movesRun},
		metricSpec{Name: "cimmlc.partitioned.run_us", Unit: "us", Better: lower, Moves: movesRun},
		metricSpec{Name: "partition.transfers", Unit: "count", Better: lower, Moves: movesRun},
		metricSpec{Name: "partition.host_nodes", Unit: "count", Better: lower, Moves: movesRun},
		metricSpec{Name: "run.p50_us", Unit: "us", Better: lower, Moves: movesRun},
		metricSpec{Name: "run.p90_us", Unit: "us", Better: lower, Moves: movesTail},
		metricSpec{Name: "go.alloc_kb_per_op", Unit: "KB", Better: lower, Moves: movesRun},
		metricSpec{Name: "go.gc_pause_ms", Unit: "ms", Better: lower, Moves: movesTail},

		// Batched executor (exec-batch).
		metricSpec{Name: "funcsim.batch.reset_us", Unit: "us", Better: lower, Moves: movesBatch},
		metricSpec{Name: "funcsim.batch.load_inputs_us", Unit: "us", Better: lower, Moves: movesBatch},
		metricSpec{Name: "funcsim.batch.run_body_us", Unit: "us", Better: lower, Moves: movesBatch},
		metricSpec{Name: "funcsim.batch.settle_us", Unit: "us", Better: lower, Moves: movesBatch},
		metricSpec{Name: "funcsim.batch.extract_us", Unit: "us", Better: lower, Moves: movesBatch},
		metricSpec{Name: "cimmlc.program.runbatch_self_us", Unit: "us", Better: lower, Moves: movesBatch},
		metricSpec{Name: "cimmlc.batch.batched_ratio", Unit: "ratio", Better: higher, Moves: movesBatch},
		metricSpec{Name: "cimmlc.batch.mean_lanes", Unit: "count", Better: higher, Moves: movesBatch},
		metricSpec{Name: "cimmlc.batch.speedup_vs_single", Unit: "ratio", Better: higher, Moves: movesBatch},

		// Gateway (serve-http, serve-fleet).
		metricSpec{Name: "net.roundtrip_self_ms", Unit: "ms", Better: lower, Moves: movesServe},
		metricSpec{Name: "serving.codec_ms", Unit: "ms", Better: lower, Moves: movesServe + " (mostly conv-relu.toy-table2)"},
		metricSpec{Name: "serving.runner_do_ms", Unit: "ms", Better: lower, Moves: movesServe},
		metricSpec{Name: "serving.batcher.wait_ms", Unit: "ms", Better: lower, Moves: movesServe + " (Batcher-backed pairs)"},
		metricSpec{Name: "serving.exec_ms", Unit: "ms", Better: lower, Moves: movesServe + ", at most the exec share"},
		metricSpec{Name: "serving.batcher.mean_batch", Unit: "count", Better: higher, Moves: movesServe},
		metricSpec{Name: "serving.batcher.size_flush_share", Unit: "ratio", Better: higher, Moves: movesServe},
		metricSpec{Name: "serving.batcher.deadline_flush_share", Unit: "ratio", Better: lower, Moves: movesServe},
		metricSpec{Name: "serving.batcher.isolation_fallbacks", Unit: "count", Better: lower, Moves: movesTail},
		metricSpec{Name: "serving.registry.builds", Unit: "count", Better: lower, Moves: "setup_s on serve-*"},
		metricSpec{Name: "serving.request_kb", Unit: "KB", Better: lower, Moves: movesServe},
		metricSpec{Name: "serving.response_kb", Unit: "KB", Better: lower, Moves: movesServe},
		metricSpec{Name: "serve.p50_ms", Unit: "ms", Better: lower, Moves: "op_ms_gm on serve-*"},
		metricSpec{Name: "serve.p99_ms", Unit: "ms", Better: lower, Moves: movesTail},

		// Fleet (serve-fleet).
		metricSpec{Name: "fleet.do_ms", Unit: "ms", Better: lower, Moves: movesFleet},
		metricSpec{Name: "fleet.replica_imbalance", Unit: "ratio", Better: lower, Moves: movesFleet},
		metricSpec{Name: "fleet.pipeline_stages", Unit: "count", Better: lower, Moves: movesFleet},
		metricSpec{Name: "fleet.scale_events", Unit: "count", Better: lower, Moves: movesFleet},

		// Tracing itself.
		metricSpec{Name: "trace.overhead_ratio", Unit: "ratio", Better: lower, Moves: "none: traced / untraced op_ms_gm of the same run"},
	)
	return ms
}

// workloadSpec is one set of inputs the benchmark runs.
type workloadSpec struct {
	Name string
	Why  string
	Run  func(cfg runConfig) (*WorkloadResult, error)
}

var workloads = []workloadSpec{
	{"compile-zoo", "the paper's model x architecture grid through Compiler.Compile: only the compiler passes and perfsim work", runCompileZoo},
	{"exec-single", "sequential Program.Run on six small cells: the interpretive funcsim.Machine path, one request at a time", runExecSingle},
	{"exec-batch", "Program.RunBatch of 64 requests on the same six cells: the compiled batched kernels, which exec-single bypasses", runExecBatch},
	{"serve-http", "closed-loop /v1/run over real HTTP with cimserve defaults: JSON codec and batcher deadline dominate, kernels do little", runServeHTTP},
	{"serve-fleet", "the same traffic through a 2-replica fleet with one pipelined over-capacity pair: router, replica queues, pipeline stages", runServeFleet},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
