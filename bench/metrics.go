package main

import "fmt"

// metricDef names one metric of BENCHMARK.json. The table below and that
// file must agree; TestBenchmarkJSONMatches keeps them honest.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is what a user of repcutd sees. Every workload reports all of
// them, from the untraced pass. Failed operations are not a metric here:
// they are the result line's "failed" over "attempted", and any makes the
// run incorrect.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"first_cycle_s", "s", "lower", 0.25},
	{"sim_cycles_per_s", "1/s", "higher", 0.2},
	{"step_p10_ms", "ms", "lower", 0.2},
	{"cpu_s_per_mcycle", "s", "lower", 0.25},
	{"server_rss_peak_mb", "MiB", "lower", 0.2},
}

func lower(unit string, names ...string) []metricDef  { return defs(unit, "lower", names) }
func higher(unit string, names ...string) []metricDef { return defs(unit, "higher", names) }

func defs(unit, better string, names []string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: better}
	}
	return out
}

// layerMetrics come from the layer probes and do not depend on which
// workload ran. Counts say "lower" or "higher" for the direction an
// optimisation would move them; per-layer metrics have no bound.
var layerMetrics = concat(
	// compile side, MegaBOOM-4C at k=2
	lower("ms", "firrtl.parse_ms", "firrtl.check_ms", "firrtl.flatten_ms", "firrtl.lower_ms",
		"cgraph.build_ms", "cone.analyze_ms", "core.partition_ms", "core.refine_derep_ms",
		"sim.compile_ms", "sim.optimize_ms", "sim.link_ms", "verify.scan_ms", "verify.tvalid_ms"),
	lower("bytes", "firrtl.src_bytes", "sim.program_mem_bytes", "sim.state_bytes"),
	lower("count", "cgraph.vertices", "cgraph.edges", "cone.clusters", "cone.sinks",
		"sim.instrs", "sim.linked_instrs"),
	higher("ratio", "sim.fusion_rate"),
	higher("count", "verify.tvalid_pairs", "verify.tvalid_proved"),
	// partition quality, MegaBOOM-4C
	perK("core.k%d.replication_pct", "%", "lower"),
	perK("core.k%d.cut_cost", "count", "lower"),
	perK("core.k%d.imbalance_incl", "ratio", "lower"),
	perK("core.k%d.derep_regs", "count", "higher"),
	// native kernel build, RocketChip-1C
	lower("ms", "codegen.kernel_cold_ms", "codegen.kernel_warm_ms"),
	// run side, engines called directly
	higher("1/s", "sim.linked.rocket-1t.cycles_per_s", "sim.linked.rocket-2t.cycles_per_s",
		"sim.linked.mega-1t.cycles_per_s", "sim.linked.mega-2t.cycles_per_s",
		"sim.interp.rocket-1t.cycles_per_s",
		"sim.native.rocket-1t.cycles_per_s", "sim.native.rocket-2t.cycles_per_s",
		"sim.batch1.rocket.lane_cycles_per_s", "sim.batch16.rocket.lane_cycles_per_s"),
	lower("count", "sim.instrs_per_cycle.rocket", "sim.instrs_per_cycle.mega"),
	lower("us", "sim.run_call_overhead_us.rocket-1t", "sim.run_call_overhead_us.rocket-2t"),
	lower("ms", "sim.snapshot_roundtrip_ms.mega"),
	phases("rocket-2t"), phases("mega-2t"),
	// host model against measurement
	higher("ratio", "hostmodel.par_speedup.rocket", "hostmodel.par_speedup.mega",
		"derived.par_speedup.rocket", "derived.par_speedup.mega",
		"derived.model_residual.rocket", "derived.model_residual.mega",
		"derived.native_speedup.rocket"),
	// service, client side and /metrics
	lower("ms", "service.compile_hit_ms", "service.session_create_ms", "service.poke_ms",
		"service.peek_ms", "service.step1_ms", "service.checkpoint_ms", "service.close_ms"),
	lower("us", "service.step_overhead_us"),
	higher("count", "service.batch.mean_lanes_per_run"),
	higher("ratio", "service.batch.occupancy", "service.cache.hit_rate"),
	lower("count", "service.sessions.rejected", "service.compile.rejected"),
	lower("ms", "service.codegen.build_ms"),
	lower("s", "service.codegen.hot_swap_wait_s"),
)

// workloadMetrics describe the traced run of one workload, and the
// benchmark itself.
var workloadMetrics = concat(
	higher("1/s", "workload.sim_cycles_per_s_median"),
	lower("ms", "workload.step_tail_ms"),
	higher("%", "workload.step_tail_pct"),
	higher("count", "workload.step_samples"),
	lower("%", "bench.trace_overhead_pct"),
	lower("s", "bench.build_repcutd_s"),
	lower("ratio", "bench.loadgen_cpu_share"),
)

// perLayer is what one traced run reports.
var perLayer = concat(layerMetrics, workloadMetrics)

func concat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

func perK(format, unit, better string) []metricDef {
	var names []string
	for _, k := range []int{2, 8, 24} {
		names = append(names, fmt.Sprintf(format, k))
	}
	return defs(unit, better, names)
}

func phases(label string) []metricDef {
	pre := "sim.phase." + label + "."
	return concat(
		higher("ratio", pre+"eval_share"),
		lower("ratio", pre+"eval_barrier_share", pre+"update_share", pre+"update_barrier_share",
			pre+"imbalance_measured"),
	)
}

// checkComplete reports metrics that are missing from, or foreign to, got.
func checkComplete(want []metricDef, got map[string]float64) error {
	seen := map[string]bool{}
	for _, d := range want {
		seen[d.Name] = true
		if _, ok := got[d.Name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
	}
	for name := range got {
		if !seen[name] {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}
