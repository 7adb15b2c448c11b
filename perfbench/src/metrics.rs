//! Metric names, units and directions, and the result line.
//!
//! The lists here and `BENCHMARK.json` name the same metrics; the
//! self-tests keep them in step.

/// One reported metric: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("wall_s", "s", "lower"),
    m("req_p50_ms", "ms", "lower"),
    m("req_p99_ms", "ms", "lower"),
    m("req_per_s", "req/s", "higher"),
    m("peak_rss_mb", "MB", "lower"),
    m("bs_speedup_geo", "ratio", "higher"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`). A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("workloads.lower_ms", "ms", "lower"),
    m("pipeline.compile_ms", "ms", "lower"),
    m("pipeline.run_self_ms", "ms", "lower"),
    m("ir.interp_ref_ms", "ms", "lower"),
    m("ir.interp_ref_calls", "count", "lower"),
    m("ir.interp_compiled_ms", "ms", "lower"),
    m("ir.verify_ms", "ms", "lower"),
    m("ir.dag_cache_hit_rate", "ratio", "higher"),
    m("opt.predicate_ms", "ms", "lower"),
    m("opt.cleanup_ms", "ms", "lower"),
    m("opt.locality_ms", "ms", "lower"),
    m("opt.unroll_ms", "ms", "lower"),
    m("opt.profile_ms", "ms", "lower"),
    m("opt.trace_schedule_ms", "ms", "lower"),
    m("opt.insts_after_unroll", "count", "lower"),
    m("core.schedule_ms", "ms", "lower"),
    m("core.exact_ms", "ms", "lower"),
    m("core.exact_nodes", "count", "lower"),
    m("core.exact_proven_frac", "ratio", "higher"),
    m("regalloc.allocate_ms", "ms", "lower"),
    m("regalloc.spills", "count", "lower"),
    m("sim.exact_ms", "ms", "lower"),
    m("sim.minst_per_s", "Minst/s", "higher"),
    m("sim.sample_plan_ms", "ms", "lower"),
    m("sim.sample_warm_ms", "ms", "lower"),
    m("sim.sample_coverage", "ratio", "lower"),
    m("sim.cpi_err_max_pct", "%", "lower"),
    m("sim.cycles_total", "count", "lower"),
    m("sim.load_interlock_share", "ratio", "lower"),
    m("sim.dyn_insts_total", "count", "lower"),
    m("mem.l1d_hit_rate", "ratio", "higher"),
    m("harness.run_ms", "ms", "lower"),
    m("harness.outside_pool_ms", "ms", "lower"),
    m("harness.pool_util", "ratio", "higher"),
    m("harness.executed", "count", "lower"),
    m("harness.hit_rate", "ratio", "higher"),
    m("serve.ping_p50_ms", "ms", "lower"),
    m("serve.warm_p50_ms", "ms", "lower"),
    m("serve.cold_p50_ms", "ms", "lower"),
    m("serve.joined_inflight", "count", "higher"),
    m("serve.rejected", "count", "lower"),
    m("serve.verified_cells", "count", "higher"),
    m("trace.overhead_pct", "%", "lower"),
    m("unattributed_ms", "ms", "lower"),
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// The benchmark's last output line: correctness, counts, and every
/// metric of `set`, read from `value` (0 when a workload has none).
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    set: &[Metric],
    value: impl Fn(&str) -> Option<f64>,
) -> String {
    let metrics: Vec<String> = set
        .iter()
        .map(|m| {
            let v = value(m.name).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}
