//! The traced run's layer replay: one cell's phase order, re-executed
//! through the crates' public functions with a timer around each call.
//!
//! The order mirrors `Session::run` (compile, then a reference
//! interpretation, then simulation). The caller compares the replayed
//! metrics and checksum with `Session::run`'s, so a replay that drifts
//! from the pipeline fails the traced run instead of timing the wrong
//! work.

use bsched_core::{schedule_function_stats, ExactStats, SchedulerKind};
use bsched_ir::{verify_program, Interp, Program};
use bsched_opt::{
    apply_locality, copy_propagate, dead_code_elim, local_cse, merge_straight_chains,
    predicate_function, trace_schedule, unroll_loop, EdgeProfile, LocalityOptions, TraceOptions,
    UnrollLimits,
};
use bsched_pipeline::CompileOptions;
use bsched_sim::{MachineSpec, SimEngine, SimMetrics, SimMode, Simulator};
use std::collections::HashSet;
use std::time::Instant;

/// Time and work accumulated per layer over replayed cells.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `verify_program` calls.
    pub verify_ns: u64,
    /// Reference (source-program) interpretations.
    pub interp_ref_ns: u64,
    /// Number of reference interpretations.
    pub interp_ref_calls: u64,
    /// Interpretations of the compiled program (the compile-time
    /// miscompilation check).
    pub interp_compiled_ns: u64,
    /// Predication.
    pub predicate_ns: u64,
    /// Local CSE, copy propagation, DCE and chain merging, both rounds.
    pub cleanup_ns: u64,
    /// Locality analysis.
    pub locality_ns: u64,
    /// Generic loop unrolling.
    pub unroll_ns: u64,
    /// Edge profiling for trace scheduling.
    pub profile_ns: u64,
    /// Trace scheduling (and its DCE).
    pub trace_schedule_ns: u64,
    /// Static instructions after unrolling and cleanup, summed.
    pub insts_after_unroll: u64,
    /// List scheduling (TS and BS arms).
    pub schedule_ns: u64,
    /// Branch-and-bound scheduling (EX arm).
    pub exact_ns: u64,
    /// Exact-search statistics.
    pub exact: ExactStats,
    /// Register allocation.
    pub allocate_ns: u64,
    /// Virtual registers spilled.
    pub spills: u64,
    /// Exact `Simulator::run` calls.
    pub sim_exact_ns: u64,
    /// Instructions retired inside exact simulations.
    pub sim_exact_insts: u64,
    /// First sampled run of each cell (plan build included).
    pub sample_plan_ns: u64,
    /// Second sampled run of each cell (plan cached).
    pub sample_warm_ns: u64,
    /// Instructions cycle-simulated by sampled runs.
    pub sampled_insts: u64,
    /// Instructions retired by sampled runs.
    pub sample_total_insts: u64,
}

impl Layers {
    /// Sum of every timed layer, nanoseconds.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.verify_ns
            + self.interp_ref_ns
            + self.interp_compiled_ns
            + self.predicate_ns
            + self.cleanup_ns
            + self.locality_ns
            + self.unroll_ns
            + self.profile_ns
            + self.trace_schedule_ns
            + self.schedule_ns
            + self.exact_ns
            + self.allocate_ns
            + self.sim_exact_ns
            + self.sample_plan_ns
            + self.sample_warm_ns
    }
}

fn timed<R>(acc: &mut u64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_nanos() as u64;
    r
}

/// What one replayed cell produced.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The simulator's metrics (the first run's, for sampled mode).
    pub metrics: SimMetrics,
    /// Whether the simulated memory image matched the reference
    /// interpreter's, as `Session::run` requires.
    pub checksum_ok: bool,
}

/// Replays one cell, adding each call's time to `acc`.
///
/// # Errors
///
/// Any pipeline or execution failure, as a message.
pub fn replay_cell(
    source: &Program,
    opts: &CompileOptions,
    mode: SimMode,
    acc: &mut Layers,
) -> Result<Replayed, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    timed(&mut acc.verify_ns, || verify_program(source)).map_err(|e| err(&e))?;
    let reference =
        timed(&mut acc.interp_ref_ns, || Interp::new(source).run()).map_err(|e| err(&e))?;
    acc.interp_ref_calls += 1;

    let mut p = source.clone();
    if opts.predicate {
        timed(&mut acc.predicate_ns, || predicate_function(p.main_mut()));
    }
    timed(&mut acc.cleanup_ns, || {
        local_cse(p.main_mut());
        copy_propagate(p.main_mut());
        dead_code_elim(p.main_mut());
    });
    let mut consumed: HashSet<usize> = HashSet::new();
    if opts.locality {
        let lopts = LocalityOptions {
            factor: opts.unroll,
            max_body_insts: 128,
        };
        let stats = timed(&mut acc.locality_ns, || {
            apply_locality(p.main_mut(), &lopts)
        });
        consumed.extend(stats.loops_processed.iter().copied());
    }
    if let Some(factor) = opts.unroll {
        let budget = opts
            .unroll_budget
            .unwrap_or(UnrollLimits::for_factor(factor).max_body_insts);
        timed(&mut acc.unroll_ns, || {
            for idx in p.main().innermost_loops() {
                if consumed.contains(&idx) {
                    continue;
                }
                let mut f = factor;
                while f >= 2 {
                    let limits = UnrollLimits {
                        factor: f,
                        max_body_insts: budget,
                    };
                    if unroll_loop(p.main_mut(), idx, &limits).is_some() {
                        break;
                    }
                    f /= 2;
                }
            }
        });
    }
    timed(&mut acc.cleanup_ns, || {
        local_cse(p.main_mut());
        copy_propagate(p.main_mut());
        dead_code_elim(p.main_mut());
        merge_straight_chains(p.main_mut());
    });
    acc.insts_after_unroll += p.main().inst_count() as u64;
    timed(&mut acc.verify_ns, || verify_program(&p)).map_err(|e| err(&e))?;

    if opts.trace {
        let profile =
            timed(&mut acc.profile_ns, || EdgeProfile::collect(&p)).map_err(|e| err(&e))?;
        let topts = TraceOptions {
            weights: opts.weight_config(),
            speculation: true,
        };
        timed(&mut acc.trace_schedule_ns, || {
            trace_schedule(p.main_mut(), &profile, &topts);
            dead_code_elim(p.main_mut());
        });
        timed(&mut acc.verify_ns, || verify_program(&p)).map_err(|e| err(&e))?;
    }

    let sched_acc = if opts.scheduler == SchedulerKind::Exact {
        &mut acc.exact_ns
    } else {
        &mut acc.schedule_ns
    };
    let exact = timed(sched_acc, || {
        schedule_function_stats(p.main_mut(), &opts.weight_config(), opts.tie_break)
    });
    acc.exact.merge(&exact);
    let alloc = timed(&mut acc.allocate_ns, || bsched_regalloc::allocate(&mut p));
    acc.spills += alloc.spilled;
    timed(&mut acc.verify_ns, || verify_program(&p)).map_err(|e| err(&e))?;

    let compiled =
        timed(&mut acc.interp_compiled_ns, || Interp::new(&p).run()).map_err(|e| err(&e))?;
    if compiled.checksum != reference.checksum {
        return Err("replayed compile diverged from the reference interpreter".to_string());
    }
    // `Session::run` interprets the source a second time after compiling.
    let reference =
        timed(&mut acc.interp_ref_ns, || Interp::new(source).run()).map_err(|e| err(&e))?;
    acc.interp_ref_calls += 1;

    let machine = MachineSpec::custom(opts.sim);
    let sim = Simulator::for_machine(&p, &machine)
        .with_engine(SimEngine::default())
        .with_mode(mode);
    let result = if mode.is_sampled() {
        let first = timed(&mut acc.sample_plan_ns, || sim.run()).map_err(|e| err(&e))?;
        let warm = timed(&mut acc.sample_warm_ns, || sim.run()).map_err(|e| err(&e))?;
        if warm.metrics != first.metrics {
            return Err("sampled rerun disagreed with the first sampled run".to_string());
        }
        if let Some(s) = first.sample {
            acc.sampled_insts += s.sampled_insts;
            acc.sample_total_insts += s.total_insts;
        }
        first
    } else {
        let r = timed(&mut acc.sim_exact_ns, || sim.run()).map_err(|e| err(&e))?;
        acc.sim_exact_insts += r.metrics.insts.total();
        r
    };
    Ok(Replayed {
        metrics: result.metrics,
        checksum_ok: result.checksum == reference.checksum,
    })
}
