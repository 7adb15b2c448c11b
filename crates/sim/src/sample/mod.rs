//! Sampled simulation: SimPoint-style phase clustering.
//!
//! Exhaustive cycle simulation stops scaling with problem size; sampling
//! buys that headroom. The recipe (Sherwood et al., ASPLOS 2002, adapted
//! to this repo in DESIGN.md §13):
//!
//! 1. **Profile**: run the functional interpreter, slice the dynamic
//!    block stream into intervals of ≥ `interval` retired instructions,
//!    and emit one normalized basic-block vector per interval
//!    (`profile`).
//! 2. **Cluster**: seeded k-means over the BBVs picks ≤ `k` phases;
//!    each phase's members are split into up to `reps` contiguous
//!    strata (in interval order) and the center member of each stratum
//!    is sampled, instruction-weighted ([`kmeans`]).
//! 3. **Warm-and-replay**: fast-forward functionally through the
//!    skipped intervals while keeping the cache hierarchy, TLBs, MSHRs,
//!    and branch predictor warm under a proxy clock, and cycle-simulate
//!    each representative interval *in place* as execution reaches it,
//!    with the simulator's one timing loop — every
//!    representative replays against exactly the warm state the full
//!    execution would have produced.
//! 4. **Extrapolate**: scale each representative's interval-local
//!    timing metrics by its stratum's total instructions
//!    (`run_sampled`).
//!
//! Steps 1–3 build a `SamplePlan` — the per-representative timing
//! deltas plus the exact functional outcome, a few kilobytes — cached
//! process-wide per (program, machine config, sample config), so
//! repeated sampled runs pay only step 4. The functional outcome —
//! instruction counts and memory checksum — comes from the exact
//! profile, so cross-checks against the reference interpreter still
//! hold; only cycle-level metrics are estimates.
//!
//! The mode axis is an execution detail, **not** an experiment knob: it
//! must never enter `CompileOptions` or any cell key. It is not
//! metrics-invariant, so a harness engine runs in one mode for its
//! whole lifetime and its memo store holds that mode's results only.

pub mod kmeans;
mod profile;

use crate::block::Code;
use crate::config::SimConfig;
use crate::machine::SimEngine;
use crate::machine::SimResult;
use crate::metrics::{InstCounts, SimMetrics};
use bsched_ir::{ExecError, Program};
use bsched_mem::MemStats;
use bsched_util::spec;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex, OnceLock};

/// Default interval length in retired instructions.
pub const DEFAULT_INTERVAL: u64 = 1000;
/// Default maximum number of clusters.
pub const DEFAULT_K: u32 = 8;
/// Default members replayed per cluster (stratified sampling).
pub const DEFAULT_REPS: u32 = 8;
/// Default k-means seed.
pub const DEFAULT_SEED: u64 = 0xb5ed;

/// Configuration of one sampled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleConfig {
    /// Minimum retired (non-terminator) instructions per interval;
    /// intervals close at the first block boundary at or past this.
    pub interval: u64,
    /// Maximum number of clusters (phases). Degrades gracefully to one
    /// cluster per interval when it exceeds the interval count.
    pub k: u32,
    /// Members replayed per cluster: the cluster's members are split
    /// into up to `reps` contiguous strata in interval order and each
    /// stratum samples its center member, so behaviour that drifts
    /// *within* a BBV-identical phase (e.g. cache warm-up across a
    /// single hot loop) is averaged instead of judged from one
    /// interval.
    pub reps: u32,
    /// Seed for k-means initialisation and projection.
    pub seed: u64,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            interval: DEFAULT_INTERVAL,
            k: DEFAULT_K,
            reps: DEFAULT_REPS,
            seed: DEFAULT_SEED,
        }
    }
}

impl SampleConfig {
    /// The accepted spellings of a sampling spec, for error messages.
    #[must_use]
    pub fn valid_spec() -> &'static str {
        "comma-separated k=<clusters, >= 1>, interval=<retired insts, >= 1>, \
         reps=<members per cluster, >= 1>, seed=<integer, 0x-hex ok> \
         (each optional, e.g. \"k=8,interval=1000\"); \
         or \"1\"/\"on\"/\"default\" for the defaults"
    }

    /// Short stable label, used by run reports (the `Display` form:
    /// non-default fields only beyond `k` and `interval`).
    #[must_use]
    pub fn label(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for SampleConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k={},interval={}", self.k, self.interval)?;
        if self.reps != DEFAULT_REPS {
            write!(f, ",reps={}", self.reps)?;
        }
        if self.seed != DEFAULT_SEED {
            write!(f, ",seed={:#x}", self.seed)?;
        }
        Ok(())
    }
}

impl FromStr for SampleConfig {
    type Err = String;

    /// Parses a sampling spec as accepted by `--sample=` and
    /// `BSCHED_SAMPLE`: see [`SampleConfig::valid_spec`]. Grammar and
    /// error shape come from [`bsched_util::spec`], the contract shared
    /// with `--machine=`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |reason: &str| {
            Err(spec::invalid(
                "sampling",
                s,
                reason,
                SampleConfig::valid_spec(),
            ))
        };
        match s.trim() {
            "" => return bad("empty spec"),
            "1" | "on" | "true" | "default" => return Ok(SampleConfig::default()),
            _ => {}
        }
        let mut cfg = SampleConfig::default();
        let parts = match spec::pairs(s, ',') {
            Ok(parts) => parts,
            Err(reason) => return bad(&reason),
        };
        for (key, value) in parts {
            let Some(n) = spec::parse_u64(value) else {
                return bad(&format!("bad value {value:?} for {key:?}"));
            };
            match key {
                "k" => {
                    if n == 0 || n > u64::from(u32::MAX) {
                        return bad("k must be between 1 and 2^32-1");
                    }
                    cfg.k = n as u32;
                }
                "interval" => {
                    if n == 0 {
                        return bad("interval must be >= 1");
                    }
                    cfg.interval = n;
                }
                "reps" => {
                    if n == 0 || n > u64::from(u32::MAX) {
                        return bad("reps must be between 1 and 2^32-1");
                    }
                    cfg.reps = n as u32;
                }
                "seed" => cfg.seed = n,
                other => return bad(&format!("unknown key {other:?}")),
            }
        }
        Ok(cfg)
    }
}

/// Which execution mode [`crate::Simulator::run`] uses: exact cycle
/// simulation of every instruction, or sampled estimation from
/// representative intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimMode {
    /// Cycle-simulate everything (the engines' bit-identical model).
    #[default]
    Exact,
    /// Estimate cycle-level metrics from representative intervals.
    Sampled(SampleConfig),
}

impl SimMode {
    /// Short stable name for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SimMode::Exact => "exact",
            SimMode::Sampled(_) => "sampled",
        }
    }

    /// True when this mode estimates rather than measures.
    #[must_use]
    pub fn is_sampled(self) -> bool {
        matches!(self, SimMode::Sampled(_))
    }
}

/// Summary of how a sampled run covered the program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleStats {
    /// Number of profiled intervals.
    pub intervals: u64,
    /// Number of (non-empty) clusters / simulated representatives.
    pub clusters: u64,
    /// Retired instructions actually cycle-simulated.
    pub sampled_insts: u64,
    /// Total retired instructions in the program.
    pub total_insts: u64,
}

impl SampleStats {
    /// Fraction of retired instructions that were cycle-simulated.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.total_insts == 0 {
            1.0
        } else {
            self.sampled_insts as f64 / self.total_insts as f64
        }
    }
}

/// A reusable sampling plan for one (program, machine, sample) triple:
/// each representative's replayed timing metrics, cluster weights, and
/// the exact functional outcome. A few kilobytes — the expensive state
/// (checkpoints, warm hierarchy) lives only during construction.
#[derive(Debug)]
struct SamplePlan {
    /// Interval-local timing metrics per representative, replayed once
    /// at plan-build time on exact warm state, in interval order.
    rep_metrics: Vec<SimMetrics>,
    /// Per representative: retired instructions of the replayed
    /// interval itself (the extrapolation denominator).
    rep_insts: Vec<u64>,
    /// Per representative: total retired instructions of the stratum it
    /// stands for (the extrapolation numerator; strata partition the
    /// execution, so these sum to the total).
    stratum_insts: Vec<u64>,
    /// Exact dynamic instruction counts.
    counts: InstCounts,
    /// Exact final-memory checksum.
    checksum: u64,
    /// Coverage summary.
    stats: SampleStats,
    /// Approximate heap footprint, for cache accounting.
    bytes: usize,
}

/// Builds a plan: profile, cluster, warm-and-replay.
fn build_plan(
    program: &Program,
    config: &SimConfig,
    sample: SampleConfig,
) -> Result<SamplePlan, ExecError> {
    // Both passes share one decode: each block's skeleton is built once.
    let mut code = Code::new(program, *config, SimEngine::default());
    let prof = profile::profile(&mut code, program, sample.interval)?;
    let clustering = kmeans::cluster(&prof.bbvs, &prof.insts_per, sample.k as usize, sample.seed);

    let mut members: Vec<Vec<usize>> = vec![Vec::new(); clustering.k()];
    for (i, &c) in clustering.assignment.iter().enumerate() {
        members[c].push(i);
    }

    // Stratified representative selection: each cluster's members
    // (kept in interval order) are split into up to `reps` contiguous
    // strata; the *center* member of each stratum is replayed and
    // weighted by its own stratum's instructions. A cluster's BBVs
    // being near-identical does not make its *timing* uniform — cache
    // warm-up drifts across a single hot loop — and per-stratum
    // weighting averages that drift without over-representing the cold
    // endpoints the way evenly-spaced pooling would.
    let mut picked: Vec<(usize, u64, u64)> = Vec::new(); // (interval, stratum insts, own insts)
    let mut sampled_insts = 0u64;
    for ms in &members {
        let m = ms.len();
        let r = (sample.reps as usize).clamp(1, m);
        for j in 0..r {
            let lo = j * m / r;
            let hi = ((j + 1) * m / r).max(lo + 1);
            let stratum = &ms[lo..hi];
            let stratum_insts: u64 = stratum.iter().map(|&iv| prof.insts_per[iv]).sum();
            let pick = stratum[stratum.len() / 2];
            picked.push((pick, stratum_insts, prof.insts_per[pick]));
            sampled_insts += prof.insts_per[pick];
        }
    }
    picked.sort_unstable();
    let intervals: Vec<usize> = picked.iter().map(|&(iv, ..)| iv).collect();
    let stratum_insts: Vec<u64> = picked.iter().map(|&(_, si, _)| si).collect();
    let rep_insts: Vec<u64> = picked.iter().map(|&(.., oi)| oi).collect();

    let rep_metrics = profile::warm_replay(&mut code, program, &prof, &intervals)?;

    let stats = SampleStats {
        intervals: prof.bbvs.len() as u64,
        clusters: clustering.k() as u64,
        sampled_insts,
        total_insts: prof.total_insts,
    };
    let bytes = rep_metrics.len() * std::mem::size_of::<SimMetrics>() + 4096;
    Ok(SamplePlan {
        rep_metrics,
        rep_insts,
        stratum_insts,
        counts: prof.counts,
        checksum: prof.checksum,
        stats,
        bytes,
    })
}

/// Process-wide plan cache: FIFO-evicted once the approximate footprint
/// exceeds the cap. Plans are immutable once built, so entries are
/// plain `Arc`s shared across concurrent runs.
struct PlanCache {
    map: HashMap<u64, Arc<SamplePlan>>,
    order: VecDeque<u64>,
    bytes: usize,
}

/// Cap on the plan cache's approximate footprint. Plans are a few
/// kilobytes each, so even many full standard-grid sweeps (17 kernels ×
/// 15 configurations per sweep) stay resident; evicting mid-sweep would
/// silently rebuild plans every pass and forfeit the sampling speedup.
const PLAN_CACHE_CAP: usize = 64 << 20;

static PLAN_CACHE: OnceLock<Mutex<PlanCache>> = OnceLock::new();

/// FNV-1a over the program text and both configs: the plan identity.
fn plan_key(program: &Program, config: &SimConfig, sample: SampleConfig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |s: &str| {
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&program.to_string());
    eat(&format!("{config:?}"));
    eat(&format!("{sample:?}"));
    h
}

/// Fetches or builds the plan for this triple.
fn plan_for(
    program: &Program,
    config: &SimConfig,
    sample: SampleConfig,
) -> Result<Arc<SamplePlan>, ExecError> {
    let key = plan_key(program, config, sample);
    let cache = PLAN_CACHE.get_or_init(|| {
        Mutex::new(PlanCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
        })
    });
    if let Some(plan) = cache.lock().unwrap().map.get(&key) {
        return Ok(Arc::clone(plan));
    }
    // Build outside the cache lock so distinct cells build concurrently;
    // a racing duplicate build of the same key loses and is dropped.
    let plan = build_plan(program, config, sample)?;
    let mut c = cache.lock().unwrap();
    if let Some(existing) = c.map.get(&key) {
        return Ok(Arc::clone(existing));
    }
    c.bytes += plan.bytes;
    c.order.push_back(key);
    let entry = Arc::new(plan);
    c.map.insert(key, Arc::clone(&entry));
    while c.bytes > PLAN_CACHE_CAP && c.order.len() > 1 {
        if let Some(old) = c.order.pop_front() {
            if old == key {
                c.order.push_back(old);
                continue;
            }
            if let Some(p) = c.map.remove(&old) {
                c.bytes -= p.bytes;
            }
        }
    }
    Ok(entry)
}

/// Rounds an estimate, surfacing non-finite values as an error so the
/// fuzzer can report estimator bugs instead of silently writing zeros.
fn est(x: f64, metric: &'static str) -> Result<u64, ExecError> {
    if x.is_finite() {
        Ok(x.round() as u64)
    } else {
        Err(ExecError::NonFiniteEstimate { metric })
    }
}

/// Runs a sampled simulation: extrapolate cluster-weighted metrics from
/// the plan's replayed representatives.
///
/// # Errors
///
/// Propagates the functional interpreter's errors from plan
/// construction (out of fuel, wild store) and reports
/// [`ExecError::NonFiniteEstimate`] if extrapolation goes non-finite.
pub(crate) fn run_sampled(
    program: &Program,
    config: SimConfig,
    sample: SampleConfig,
) -> Result<SimResult, ExecError> {
    let plan = plan_for(program, &config, sample)?;

    // f64 accumulators, filled in fixed (interval) order so repeated
    // runs are bit-identical.
    let mut cycles = 0.0;
    let mut load_interlock = 0.0;
    let mut fixed_interlock = 0.0;
    let mut branch_penalty = 0.0;
    let mut store_stall = 0.0;
    let mut fetch_stall = 0.0;
    let mut tlb_stall = 0.0;
    let mut mem_acc = [0.0f64; 13];

    for i in 0..plan.rep_metrics.len() {
        let dm = &plan.rep_metrics[i];
        let scale = plan.stratum_insts[i] as f64 / plan.rep_insts[i].max(1) as f64;
        cycles += dm.cycles as f64 * scale;
        load_interlock += dm.load_interlock as f64 * scale;
        fixed_interlock += dm.fixed_interlock as f64 * scale;
        branch_penalty += dm.branch_penalty as f64 * scale;
        store_stall += dm.store_stall as f64 * scale;
        fetch_stall += dm.fetch_stall as f64 * scale;
        tlb_stall += dm.tlb_stall as f64 * scale;
        let ms = dm.mem;
        for (acc, v) in mem_acc.iter_mut().zip([
            ms.l1d_hits,
            ms.l2_hits,
            ms.l3_hits,
            ms.mem_reads,
            ms.mshr_merges,
            ms.mshr_stall_cycles,
            ms.dtb_misses,
            ms.itb_misses,
            ms.icache_misses,
            ms.stores,
            ms.wb_stall_cycles,
            ms.prefetches,
            ms.prefetch_useful,
        ]) {
            *acc += v as f64 * scale;
        }
    }

    let metrics = SimMetrics {
        cycles: est(cycles, "cycles")?,
        insts: plan.counts,
        load_interlock: est(load_interlock, "load_interlock")?,
        fixed_interlock: est(fixed_interlock, "fixed_interlock")?,
        branch_penalty: est(branch_penalty, "branch_penalty")?,
        store_stall: est(store_stall, "store_stall")?,
        fetch_stall: est(fetch_stall, "fetch_stall")?,
        tlb_stall: est(tlb_stall, "tlb_stall")?,
        mem: MemStats {
            l1d_hits: est(mem_acc[0], "l1d_hits")?,
            l2_hits: est(mem_acc[1], "l2_hits")?,
            l3_hits: est(mem_acc[2], "l3_hits")?,
            mem_reads: est(mem_acc[3], "mem_reads")?,
            mshr_merges: est(mem_acc[4], "mshr_merges")?,
            mshr_stall_cycles: est(mem_acc[5], "mshr_stall_cycles")?,
            dtb_misses: est(mem_acc[6], "dtb_misses")?,
            itb_misses: est(mem_acc[7], "itb_misses")?,
            icache_misses: est(mem_acc[8], "icache_misses")?,
            stores: est(mem_acc[9], "stores")?,
            wb_stall_cycles: est(mem_acc[10], "wb_stall_cycles")?,
            prefetches: est(mem_acc[11], "prefetches")?,
            prefetch_useful: est(mem_acc[12], "prefetch_useful")?,
        },
    };
    Ok(SimResult {
        metrics,
        checksum: plan.checksum,
        sample: Some(plan.stats),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_and_aliases_parse() {
        let d: SampleConfig = "1".parse().unwrap();
        assert_eq!(d, SampleConfig::default());
        for alias in ["on", "true", "default"] {
            assert_eq!(alias.parse::<SampleConfig>().unwrap(), d);
        }
        let c: SampleConfig = "k=4,interval=500,reps=2,seed=0x2a".parse().unwrap();
        assert_eq!(
            c,
            SampleConfig {
                interval: 500,
                k: 4,
                reps: 2,
                seed: 42
            }
        );
        let again: SampleConfig = c.to_string().parse().unwrap();
        assert_eq!(again, c);
    }

    #[test]
    fn bad_specs_list_the_valid_format() {
        for bad in ["", "k=0", "interval=0", "banana", "k=three", "pace=9"] {
            let err = bad.parse::<SampleConfig>().unwrap_err();
            assert!(err.contains("valid:"), "{err}");
            assert!(err.contains("k=<clusters"), "{err}");
        }
    }

    #[test]
    fn mode_labels() {
        assert_eq!(SimMode::Exact.label(), "exact");
        assert_eq!(SimMode::Sampled(SampleConfig::default()).label(), "sampled");
        assert!(!SimMode::Exact.is_sampled());
        assert!(SimMode::default() == SimMode::Exact);
    }

    #[test]
    fn coverage_is_sane() {
        let s = SampleStats {
            intervals: 10,
            clusters: 4,
            sampled_insts: 400,
            total_insts: 1000,
        };
        assert!((s.coverage() - 0.4).abs() < 1e-12);
        assert_eq!(SampleStats::default().coverage(), 1.0);
    }
}
