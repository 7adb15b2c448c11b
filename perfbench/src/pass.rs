//! One cold pass of a grid section, run in a fresh process from a fresh
//! directory (its own cwd and disk cache), so the process-wide
//! DAG-analysis and sampling-plan caches start empty too.
//!
//! The pass prints one JSON object of named numbers. A ratio is printed
//! as its two parts, `NAME#num` and `NAME#den`, so the parent can add
//! the parts over a `grids` iteration's sections before dividing.

use crate::cells::{grid_cells, grid_csv, shuffled, zoo_cells, zoo_csv, Section, ZOO_ARMS};
use crate::check::{check_sampled, line_mismatches};
use crate::replay::{replay_cell, Layers};
use crate::spans;
use crate::stats::ratio;
use bsched_harness::{decode_metrics, encode_metrics, Engine, EngineConfig, ExperimentCell};
use bsched_ir::Program;
use bsched_pipeline::{SampleConfig, SchedulerKind, SimMode};
use bsched_sim::SimMetrics;
use bsched_util::Json;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

/// Harness workers, sized for a two-core machine.
pub const JOBS: usize = 2;

/// What a pass does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The section as a user runs it, tracing off.
    Plain,
    /// The same with `bsched-trace` on; spans are folded into layers.
    Traced,
    /// The single-threaded layer replay of every cell, checked against
    /// the `Traced` pass's results in the same directory.
    Replay,
    /// Set-up only: lowering and engine construction, then exit. The
    /// parent times it from spawn to [`READY`].
    Setup,
}

/// The line a pass prints on stdout once its first cell can be
/// submitted; the parent's set-up time ends when it reads it.
pub const READY: &str = "ready";

impl Mode {
    /// Parses `plain`, `traced`, `replay` or `setup`.
    ///
    /// # Errors
    ///
    /// An unknown name.
    pub fn parse(s: &str) -> Result<Mode, String> {
        match s {
            "plain" => Ok(Mode::Plain),
            "traced" => Ok(Mode::Traced),
            "replay" => Ok(Mode::Replay),
            "setup" => Ok(Mode::Setup),
            other => Err(format!("unknown pass mode {other:?}")),
        }
    }

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::Replay => "replay",
            Mode::Setup => "setup",
        }
    }
}

/// The file a traced pass leaves for the replay: each cell's metrics by
/// canonical key.
const ENGINE_RESULTS: &str = "engine_results.json";

fn sim_mode(s: Section) -> SimMode {
    if s == Section::GridSampled {
        SimMode::Sampled(SampleConfig::default())
    } else {
        SimMode::Exact
    }
}

/// The section's cells in canonical (output) order.
#[must_use]
pub fn section_cells(s: Section) -> Vec<ExperimentCell> {
    match s {
        Section::MachineZoo => zoo_cells(),
        _ => grid_cells().into_iter().map(|(c, _)| c).collect(),
    }
}

/// Lowers the 17 kernels.
#[must_use]
pub fn lower_kernels() -> Vec<(String, Program)> {
    bsched_workloads::all_kernels()
        .iter()
        .map(|k| (k.name.to_string(), k.program()))
        .collect()
}

/// An engine as the section runs it: two workers, disk cache in
/// `cache/` under the cwd.
#[must_use]
pub fn engine(s: Section, kernels: Vec<(String, Program)>) -> Engine {
    let config = EngineConfig::default()
        .with_jobs(JOBS)
        .with_disk_cache(true)
        .with_cache_dir("cache".into())
        .with_sim_mode(sim_mode(s));
    Engine::new(kernels, config)
}

/// Submits `cells` in seed order and returns their metrics in the
/// given (canonical) order.
///
/// # Errors
///
/// A failed cell.
pub fn run_ordered(
    engine: &Engine,
    cells: &[ExperimentCell],
    seed: u64,
) -> Result<Vec<SimMetrics>, String> {
    engine
        .run(&shuffled(cells, seed))
        .map_err(|e| e.to_string())?;
    cells
        .iter()
        .map(|c| {
            engine
                .result(c)
                .map(|r| r.metrics)
                .ok_or_else(|| format!("no result for {c}"))
        })
        .collect()
}

/// The section's printed output for metrics in canonical order.
#[must_use]
pub fn render(s: Section, metrics: &[SimMetrics]) -> String {
    match s {
        Section::MachineZoo => zoo_csv(&metrics.iter().map(|m| m.cycles).collect::<Vec<_>>()),
        _ => grid_csv(&grid_cells(), metrics),
    }
}

/// Simulated TS/BS cycle ratios over the section's TS/BS pairs.
#[must_use]
pub fn bs_speedups(s: Section, metrics: &[SimMetrics]) -> Vec<f64> {
    match s {
        Section::MachineZoo => metrics
            .chunks(ZOO_ARMS.len())
            .map(|arms| arms[0].cycles as f64 / arms[1].cycles as f64)
            .collect(),
        _ => {
            let cells = grid_cells();
            let with = |sched: SchedulerKind| {
                cells
                    .iter()
                    .zip(metrics)
                    .filter(move |((_, cfg), _)| cfg.scheduler == sched)
                    .map(|((c, cfg), m)| ((c.kernel(), cfg.kind), m.cycles))
            };
            let bs: HashMap<_, u64> = with(SchedulerKind::Balanced).collect();
            with(SchedulerKind::Traditional)
                .filter_map(|(key, ts)| bs.get(&key).map(|b| ts as f64 / *b as f64))
                .collect()
        }
    }
}

/// Output mismatches against the committed results, plus the sampled
/// grid's largest CPI error in percent (0 for exact sections).
///
/// # Errors
///
/// The committed file cannot be read or parsed.
pub fn check_output(s: Section, output: &str, repo: &Path) -> Result<(u64, f64), String> {
    let file = if s == Section::MachineZoo {
        "results/machines.csv"
    } else {
        "results/all_experiments.csv"
    };
    let path = repo.join(file);
    let reference = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if s == Section::GridSampled {
        let c = check_sampled(output, &reference)?;
        Ok((c.failures, c.cpi_err_max_pct))
    } else {
        Ok((line_mismatches(output, &reference), 0.0))
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    vm_hwm_mb(&status)
}

/// `VmHWM` of a `/proc/<pid>/status` text, in MB (0 when absent).
#[must_use]
pub fn vm_hwm_mb(status: &str) -> f64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A pass's output object: plain numbers, and ratios as their parts.
#[derive(Default)]
struct Out(BTreeMap<String, Json>);

impl Out {
    fn put(&mut self, k: &str, v: f64) {
        self.0.insert(k.to_string(), Json::Num(v));
    }

    fn put_ratio(&mut self, k: &str, num: f64, den: f64) {
        self.put(&format!("{k}#num"), num);
        self.put(&format!("{k}#den"), den);
    }
}

/// Pass outputs that combine over a `grids` iteration's sections by
/// their largest value rather than their sum.
const MAX_KEYS: [&str; 2] = ["peak_rss_mb", "sim.cpi_err_max_pct"];

/// Adds a `grids` iteration's pass objects into one set of numbers:
/// values are summed (those of [`MAX_KEYS`] take the largest), each
/// `NAME#num`/`NAME#den` pair is divided into `NAME`, and the sections'
/// log TS/BS ratios become `bs_speedup_geo`.
#[must_use]
pub fn combine(objs: &[Json]) -> BTreeMap<String, f64> {
    let mut sum: BTreeMap<String, f64> = BTreeMap::new();
    for obj in objs {
        let Json::Obj(fields) = obj else { continue };
        for (k, v) in fields {
            let Some(v) = v.as_f64() else { continue };
            let e = sum.entry(k.clone()).or_insert(0.0);
            *e = if MAX_KEYS.contains(&k.as_str()) {
                e.max(v)
            } else {
                *e + v
            };
        }
    }
    let ratios: Vec<String> = sum
        .keys()
        .filter_map(|k| k.strip_suffix("#num"))
        .map(str::to_string)
        .collect();
    for name in ratios {
        let num = sum.remove(&format!("{name}#num")).unwrap_or(0.0);
        let den = sum.remove(&format!("{name}#den")).unwrap_or(0.0);
        sum.insert(name, ratio(num, den));
    }
    if let (Some(ln_sum), Some(pairs)) = (sum.remove("bs_ln_sum"), sum.remove("bs_pairs")) {
        sum.insert("bs_speedup_geo".to_string(), ratio(ln_sum, pairs).exp());
    }
    sum
}

/// Runs one pass in the current directory and returns its JSON object.
///
/// # Errors
///
/// Any failure that leaves the pass without results.
pub fn run(s: Section, seed: u64, mode: Mode, repo: &Path) -> Result<Json, String> {
    if mode == Mode::Replay {
        return replay(s, seed);
    }
    // Set-up: everything before the first cell can be submitted.
    let t = Instant::now();
    let kernels = lower_kernels();
    let lower_ms = t.elapsed().as_secs_f64() * 1e3;
    let engine = engine(s, kernels);
    let cells = section_cells(s);
    println!("{READY}");
    if mode == Mode::Setup {
        return Ok(Json::Obj(BTreeMap::new()));
    }
    if mode == Mode::Traced {
        bsched_trace::set_enabled(true);
    }

    let t = Instant::now();
    let metrics = run_ordered(&engine, &cells, seed)?;
    let output = render(s, &metrics);
    let wall_s = t.elapsed().as_secs_f64();
    bsched_trace::set_enabled(false);

    let (mismatches, cpi_err_max_pct) = check_output(s, &output, repo)?;
    let report = engine.report();
    let mut out = Out::default();
    out.put("wall_s", wall_s);
    out.put("attempted", cells.len() as f64);
    out.put("failed", mismatches as f64);
    out.put("peak_rss_mb", peak_rss_mb());
    out.put("sim.cpi_err_max_pct", cpi_err_max_pct);
    // The headline is exact simulated time: sampled estimates stay out.
    if s != Section::GridSampled {
        let speedups = bs_speedups(s, &metrics);
        out.put("bs_ln_sum", speedups.iter().map(|r| r.ln()).sum());
        out.put("bs_pairs", speedups.len() as f64);
    }
    if mode == Mode::Traced {
        let folded = spans::fold(&bsched_trace::drain());
        let span = |name: &str| folded.get(name).copied().unwrap_or_default();
        let (dag_hits, dag_misses, _) = bsched_ir::analysis::cache_stats();
        let busy: f64 = report
            .worker_busy
            .iter()
            .map(std::time::Duration::as_secs_f64)
            .sum();
        let pool_s = report.pool_wall.as_secs_f64();
        let cycles: u64 = metrics.iter().map(|m| m.cycles).sum();
        let interlock: u64 = metrics.iter().map(|m| m.load_interlock).sum();
        let l1d_hits: u64 = metrics.iter().map(|m| m.mem.l1d_hits).sum();
        let reads: u64 = metrics.iter().map(|m| m.mem.total_reads()).sum();
        // Every section lowers the same kernels: report the mean.
        out.put_ratio("workloads.lower_ms", lower_ms, 1.0);
        out.put("pipeline.compile_ms", ms(span("pipeline.compile").total_ns));
        out.put("pipeline.run_self_ms", ms(span("harness.cell").self_ns));
        out.put_ratio(
            "ir.dag_cache_hit_rate",
            dag_hits as f64,
            (dag_hits + dag_misses) as f64,
        );
        out.put("sim.cycles_total", cycles as f64);
        out.put_ratio("sim.load_interlock_share", interlock as f64, cycles as f64);
        out.put(
            "sim.dyn_insts_total",
            metrics.iter().map(|m| m.insts.total()).sum::<u64>() as f64,
        );
        out.put_ratio("mem.l1d_hit_rate", l1d_hits as f64, reads as f64);
        out.put("harness.run_ms", pool_s * 1e3);
        out.put("harness.outside_pool_ms", (wall_s - pool_s) * 1e3);
        out.put_ratio("harness.pool_util", busy, pool_s * report.workers as f64);
        out.put("harness.executed", report.executed as f64);
        out.put_ratio(
            "harness.hit_rate",
            (report.memory_hits + report.disk_hits) as f64,
            report.requested as f64,
        );
        let results: BTreeMap<String, Json> = cells
            .iter()
            .zip(&metrics)
            .map(|(c, m)| (c.canonical_key().to_string(), encode_metrics(m)))
            .collect();
        std::fs::write(ENGINE_RESULTS, Json::Obj(results).to_string_compact())
            .map_err(|e| format!("cannot write {ENGINE_RESULTS}: {e}"))?;
    } else {
        let cell_ms = report
            .cell_timings
            .iter()
            .map(|t| Json::Num(t.wall.as_secs_f64() * 1e3))
            .collect();
        out.0.insert("cell_ms".to_string(), Json::Arr(cell_ms));
    }
    Ok(Json::Obj(out.0))
}

/// The layer replay: every cell in seed order on one thread, each
/// public call timed, each result checked against the traced pass's.
fn replay(s: Section, seed: u64) -> Result<Json, String> {
    let text = std::fs::read_to_string(ENGINE_RESULTS)
        .map_err(|e| format!("cannot read {ENGINE_RESULTS}: {e}"))?;
    let expected = Json::parse(&text).map_err(|e| format!("{ENGINE_RESULTS}: {e}"))?;
    let programs: BTreeMap<String, Program> = lower_kernels().into_iter().collect();
    let cells = shuffled(&section_cells(s), seed);

    let mut acc = Layers::default();
    let mut mismatches = 0u64;
    for cell in &cells {
        let program = &programs[cell.kernel()];
        let want = expected.get(cell.canonical_key()).and_then(decode_metrics);
        match replay_cell(program, cell.options(), sim_mode(s), &mut acc) {
            Ok(r) if r.checksum_ok && want.as_ref() == Some(&r.metrics) => {}
            Ok(_) => mismatches += 1,
            Err(e) => {
                eprintln!("perfbench: replay of {cell} failed: {e}");
                mismatches += 1;
            }
        }
    }

    let mut out = Out::default();
    out.put("attempted", cells.len() as f64);
    out.put("failed", mismatches as f64);
    out.put("ir.interp_ref_ms", ms(acc.interp_ref_ns));
    out.put("ir.interp_ref_calls", acc.interp_ref_calls as f64);
    out.put("ir.interp_compiled_ms", ms(acc.interp_compiled_ns));
    out.put("ir.verify_ms", ms(acc.verify_ns));
    out.put("opt.predicate_ms", ms(acc.predicate_ns));
    out.put("opt.cleanup_ms", ms(acc.cleanup_ns));
    out.put("opt.locality_ms", ms(acc.locality_ns));
    out.put("opt.unroll_ms", ms(acc.unroll_ns));
    out.put("opt.profile_ms", ms(acc.profile_ns));
    out.put("opt.trace_schedule_ms", ms(acc.trace_schedule_ns));
    out.put("opt.insts_after_unroll", acc.insts_after_unroll as f64);
    out.put("core.schedule_ms", ms(acc.schedule_ns));
    out.put("core.exact_ms", ms(acc.exact_ns));
    out.put("core.exact_nodes", acc.exact.nodes as f64);
    out.put_ratio(
        "core.exact_proven_frac",
        acc.exact.proven as f64,
        acc.exact.regions as f64,
    );
    out.put("regalloc.allocate_ms", ms(acc.allocate_ns));
    out.put("regalloc.spills", acc.spills as f64);
    out.put("sim.exact_ms", ms(acc.sim_exact_ns));
    out.put_ratio(
        "sim.minst_per_s",
        acc.sim_exact_insts as f64 / 1e6,
        acc.sim_exact_ns as f64 / 1e9,
    );
    out.put("sim.sample_plan_ms", ms(acc.sample_plan_ns));
    out.put("sim.sample_warm_ms", ms(acc.sample_warm_ns));
    out.put_ratio(
        "sim.sample_coverage",
        acc.sampled_insts as f64,
        acc.sample_total_insts as f64,
    );
    // What the traced pass also ran: every layer but the sampled rerun,
    // which only the replay makes.
    out.put("layers_ms", ms(acc.total_ns() - acc.sample_warm_ns));
    Ok(Json::Obj(out.0))
}
