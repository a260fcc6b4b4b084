package main

import "strings"

// metricDef declares one metric: its name, unit, which direction is better,
// and for end-to-end metrics how far the median may worsen before -compare
// calls a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Stat names the statistic an end-to-end metric reports over its
	// samples: "best", "median", "p50", "p95" (see reducer).
	Stat string
	// Bound is the share of the base value by which the metric may worsen;
	// Floor is an absolute slack below which a difference never counts.
	Bound float64
	Floor float64
	// Exact marks a per-layer count that repeats bit for bit on the three
	// simulated workloads; -compare checks it by equality.
	Exact bool
}

// endToEnd lists what a user of the system pays. Host metrics are wall
// clock or host memory; virt_ms is simulated (virtual) time and must repeat
// exactly. The host-time bounds are about twice the widest spread
// between identical runs measured on the 2-core sandbox (README), which is
// also the most BENCHMARK.json may declare; it declares the same numbers.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Stat: "median", Bound: 0.25, Floor: 0.05},
	{Name: "host_s", Unit: "s", Better: "lower", Stat: "best", Bound: 0.25},
	{Name: "guest_mips", Unit: "Minsn/s", Better: "higher", Stat: "best", Bound: 0.25},
	{Name: "virt_ms", Unit: "ms", Better: "lower", Stat: "median", Bound: 0.01, Exact: true},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Stat: "median", Bound: 0.05, Floor: 1},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower", Stat: "p50", Bound: 0.25},
	{Name: "job_p95_ms", Unit: "ms", Better: "lower", Stat: "p95", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Stat: "best", Bound: 0.25},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Stat: "ratio", Bound: 0},
}

// driverEndToEnd names the end-to-end metrics every workload reports, which
// are the ones BENCHMARK.json can declare: its contract wants each declared
// end-to-end metric from each workload, never zero and never constant. The
// other five go to the driver as per-layer rows (no bound) or, for
// fail_ratio, as its failed/attempted counts.
var driverEndToEnd = []string{"setup_s", "host_s", "guest_mips", "alloc_mb"}

// driverExtraLayer are the end-to-end metrics BENCHMARK.json lists under
// per_layer, for the reason above.
var driverExtraLayer = []string{"virt_ms", "job_p50_ms", "job_p95_ms", "jobs_per_s"}

// simInputNames and jobTemplateNames fix the per-input rows.
var (
	simInputNames = []string{"pi", "blackscholes", "swaptions", "x264", "cold4", "cold30", "cold120",
		"canneal", "dedup", "streamcluster", "fluidanimate"}
	jobTemplateNames = []string{"tiny", "threads", "bs-image", "bs", "pi", "fluid"}
)

// perLayer lists the per-layer metrics; layer = package name. "virt" in a
// name means virtual time, everything else timed is host time.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, exact bool, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better, Exact: exact})
		}
	}
	// Benchmark-side spans: self time in the traced iteration.
	add("ms", "lower", false, "span.gen_ms", "span.grt.build_ms", "span.image.codec_ms",
		"span.core.new_cluster_ms", "span.core.run_ms", "span.server.submit_ms",
		"span.server.queue_ms", "span.server.run_ms", "span.server.fetch_ms")
	add("%", "lower", false, "trace.overhead_pct")
	// Exact counters of the simulated run.
	add("count", "lower", true, "tcg.exec_insns", "tcg.blocks", "tcg.translated_insns",
		"tcg.superblocks", "tcg.tier3_superblocks")
	add("ratio", "higher", true, "tcg.tier3_insn_share", "tcg.superblock_insn_share", "tcg.jump_cache_hit_ratio")
	add("count", "lower", true, "tcg.tier3_demotions")
	add("count", "higher", true, "tcg.peep_applied")
	add("count", "lower", true, "core.page_faults")
	add("ms", "lower", true, "core.page_wait_virt_ms")
	add("us", "lower", true, "core.remote_fault_p50_virt_us", "core.remote_fault_p99_virt_us")
	add("count", "lower", true, "core.llsc_false")
	add("count", "lower", true, "dsm.reads", "dsm.writes", "dsm.fetches", "dsm.invalidates",
		"dsm.pushes", "dsm.splits", "dsm.full_resends")
	add("ratio", "higher", true, "dsm.forward_useful_ratio")
	add("ratio", "lower", true, "wire.delta_ratio", "wire.full_page_share")
	add("count", "lower", true, "wire.delta_misses")
	add("ratio", "higher", true, "wire.inv_pages_per_batch")
	add("count", "higher", true, "wire.piggy_pushes")
	add("count", "lower", true, "netsim.msgs", "netsim.bytes")
	add("ms", "lower", true, "netsim.busy_tx_virt_ms")
	add("ratio", "higher", true, "netsim.insns_per_msg")
	add("count", "lower", true, "guestos.global_syscalls", "guestos.futex_waits")
	// Layer replays: host time of public functions on captured inputs.
	add("MB/s", "higher", false, "kernel.minicc.compile_mb_s")
	add("kinsn/s", "higher", false, "kernel.asm.assemble_kinsn_s")
	add("ms", "lower", false, "kernel.grt.build_small_ms")
	add("MB/s", "higher", false, "kernel.image.encode_mb_s", "kernel.image.decode_mb_s")
	add("ns", "lower", false, "kernel.isa.decode_ns",
		"kernel.mem.load_ns", "kernel.mem.store_ns", "kernel.mem.fault_ns", "kernel.mem.install_drop_ns",
		"kernel.tcg.interp_ns_per_insn", "kernel.tcg.tier1_ns_per_insn", "kernel.tcg.tier2_ns_per_insn",
		"kernel.tcg.tier3_ns_per_insn", "kernel.tcg.cold_translate_ns_per_insn",
		"kernel.dsm.read_grant_ns", "kernel.dsm.write_inval_ns", "kernel.dsm.fetch_reply_ns",
		"kernel.dsm.forwarder_record_ns",
		"kernel.proto.encode_small_ns", "kernel.proto.decode_small_ns", "kernel.proto.encode_page_ns",
		"kernel.proto.decode_page_ns", "kernel.proto.delta_encode_sparse_ns",
		"kernel.proto.delta_encode_dense_ns", "kernel.proto.delta_apply_ns")
	add("count", "lower", false, "kernel.proto.encode_page_allocs")
	add("ns", "lower", false, "kernel.sim.post_step_ns")
	add("count", "lower", false, "kernel.sim.post_step_allocs")
	add("ns", "lower", false, "kernel.netsim.send_deliver_ns", "kernel.metrics.hist_observe_ns")
	add("%", "lower", false, "kernel.metrics.run_overhead_pct", "kernel.trace.run_overhead_pct")
	add("ms", "lower", false, "kernel.server.empty_job_ms", "kernel.live.empty_job_ms")
	add("ratio", "lower", false, "kernel.live.vs_sim_ratio")
	// Modelled shares of host_s: count x replay ns. Estimates, not
	// measurements taken inside the run.
	add("ratio", "lower", false, "est.translate_share", "est.proto_share", "est.dsm_share",
		"est.sim_netsim_share", "est.toolchain_share")
	// Host runtime of the workload's process.
	add("MB", "lower", false, "host.peak_heap_mb")
	add("count", "lower", false, "host.gc_cycles")
	add("%", "lower", false, "host.gc_cpu_pct")
	add("count", "lower", false, "host.mallocs_per_iter")
	add("ratio", "lower", false, "host.cpu_s_per_wall_s")
	for _, in := range simInputNames {
		add("s", "lower", false, "input."+in+".host_s")
		add("ms", "lower", true, "input."+in+".virt_ms")
	}
	for _, tpl := range jobTemplateNames {
		add("ms", "lower", false, "job."+tpl+".p50_ms")
	}
	return out
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// clock says which clock a metric reads, for the printed tables: "virt" in
// a name means virtual (simulated) time; the other exact rows are counts of
// the deterministic simulation, on no clock; everything else is host time or
// host memory.
func clock(def metricDef) string {
	switch {
	case strings.Contains(def.Name, "virt"):
		return "virtual"
	case def.Exact:
		return "-"
	}
	return "host"
}
