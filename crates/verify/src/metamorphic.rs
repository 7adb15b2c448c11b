//! Metamorphic invariants over simulator output.
//!
//! These are relations that must hold for *every* simulated cell, derived
//! from the timing machine's accounting discipline rather than from any
//! particular expected value:
//!
//! * **Cycle accounting** — every advance of the simulator clock is
//!   either an issue step or lands in exactly one stall counter, so
//!   `stalls + terminators <= cycles <= stalls + dynamic instructions`.
//! * **Cache-stats conservation** — each executed load makes exactly one
//!   hierarchy read (served at L1, L2, L3, memory, or merged into an
//!   outstanding MSHR) and each executed store exactly one write, so the
//!   hierarchy totals must equal the instruction counts, spills included.
//! * **Monotonicity** ([`check_allhit_closeness`]) — when memory always
//!   hits (a first-level cache big enough that only compulsory misses
//!   remain), balanced and traditional weights describe the same machine,
//!   so their cycle counts may differ only by tie-break noise.

use bsched_ir::Program;
use bsched_mem::CacheConfig;
use bsched_pipeline::{CompileOptions, Experiment, PipelineError};
use bsched_sim::{SimConfig, SimMetrics};
use std::fmt;

/// One violated metamorphic invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaViolation {
    /// `cycles` is smaller than the accounted stalls + terminator issues.
    CyclesBelowAccountedFloor {
        /// Total cycles reported.
        cycles: u64,
        /// Sum of every stall counter plus terminator issue steps.
        floor: u64,
    },
    /// `cycles` exceeds what instructions + stalls can explain.
    CyclesAboveAccountedCeiling {
        /// Total cycles reported.
        cycles: u64,
        /// Dynamic instructions plus every stall counter.
        ceiling: u64,
    },
    /// Hierarchy reads+writes disagree with executed loads+stores.
    MemoryAccessesNotConserved {
        /// Hierarchy-side accesses (reads at any level + merges + writes).
        hierarchy: u64,
        /// Instruction-side memory operations (loads + stores + spills).
        instructions: u64,
    },
    /// More prefetched lines were counted useful than were ever issued.
    PrefetchAccountingBroken {
        /// Prefetches issued by the L1D prefetcher.
        prefetches: u64,
        /// Prefetched lines later hit by a demand access.
        useful: u64,
    },
    /// Under all-hit memory, balanced and traditional cycles diverged
    /// beyond tie-break noise.
    AllHitDivergence {
        /// Balanced-schedule cycles.
        balanced: u64,
        /// Traditional-schedule cycles.
        traditional: u64,
        /// The tolerated relative difference.
        tolerance: f64,
    },
}

impl fmt::Display for MetaViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaViolation::CyclesBelowAccountedFloor { cycles, floor } => write!(
                f,
                "cycle accounting broken: {cycles} cycles < accounted floor {floor}"
            ),
            MetaViolation::CyclesAboveAccountedCeiling { cycles, ceiling } => write!(
                f,
                "cycle accounting broken: {cycles} cycles > accounted ceiling {ceiling}"
            ),
            MetaViolation::MemoryAccessesNotConserved {
                hierarchy,
                instructions,
            } => write!(
                f,
                "cache stats not conserved: {hierarchy} hierarchy accesses vs \
                 {instructions} executed memory instructions"
            ),
            MetaViolation::PrefetchAccountingBroken { prefetches, useful } => write!(
                f,
                "prefetch accounting broken: {useful} useful prefetches out of only \
                 {prefetches} issued"
            ),
            MetaViolation::AllHitDivergence {
                balanced,
                traditional,
                tolerance,
            } => write!(
                f,
                "all-hit memory: balanced ({balanced}) and traditional ({traditional}) \
                 cycles diverge beyond {:.0}% tie-break noise",
                tolerance * 100.0
            ),
        }
    }
}

/// Sum of every stall counter.
#[must_use]
pub fn stall_sum(m: &SimMetrics) -> u64 {
    m.load_interlock
        + m.fixed_interlock
        + m.branch_penalty
        + m.store_stall
        + m.fetch_stall
        + m.tlb_stall
}

/// Checks the per-cell invariants (cycle accounting, cache-stats
/// conservation) on one simulated run's metrics.
#[must_use]
pub fn check_metrics(m: &SimMetrics) -> Vec<MetaViolation> {
    let mut violations = Vec::new();
    let stalls = stall_sum(m);
    // Each terminator (branch or jump) advances the clock by one issue
    // step beyond its stalls; block instructions advance it at most once
    // each. Hence: stalls + terminators <= cycles <= stalls + total.
    let floor = stalls + m.insts.branches + m.insts.jumps;
    let ceiling = stalls + m.insts.total();
    if m.cycles < floor {
        violations.push(MetaViolation::CyclesBelowAccountedFloor {
            cycles: m.cycles,
            floor,
        });
    }
    if m.cycles > ceiling {
        violations.push(MetaViolation::CyclesAboveAccountedCeiling {
            cycles: m.cycles,
            ceiling,
        });
    }
    // One hierarchy read per executed load, one write per executed store;
    // the spill counter covers both allocator-inserted restores (loads)
    // and spill stores, so the instruction side is loads+stores+spills.
    let hierarchy = m.mem.total_reads() + m.mem.stores;
    let instructions = m.insts.loads + m.insts.stores + m.insts.spills;
    if hierarchy != instructions {
        violations.push(MetaViolation::MemoryAccessesNotConserved {
            hierarchy,
            instructions,
        });
    }
    // Prefetches ride outside the demand stream (they are deliberately
    // not part of `total_reads`), but a line can only turn useful after
    // being issued.
    if m.mem.prefetch_useful > m.mem.prefetches {
        violations.push(MetaViolation::PrefetchAccountingBroken {
            prefetches: m.mem.prefetches,
            useful: m.mem.prefetch_useful,
        });
    }
    violations
}

/// A machine whose data side always hits: a first-level data cache large
/// and associative enough that nothing ever leaves L1 (compulsory misses
/// aside), with I-fetch modeling off so only the data side is measured.
#[must_use]
pub fn allhit_config() -> SimConfig {
    let mut cfg = SimConfig::alpha21164().with_ifetch(false);
    cfg.mem.l1d = CacheConfig {
        size: 16 * 1024 * 1024,
        line: 32,
        assoc: 4,
        latency: 2,
    };
    cfg.mem.dtb_entries = 4096;
    cfg
}

/// The monotonicity check: compiles `program` with balanced and with
/// traditional weights, runs both on all-hit memory, and requires the
/// cycle counts to agree within `tolerance` (relative). With no variable
/// latency left to hide, the two weight policies describe the same
/// machine and may differ only through tie-breaking.
///
/// # Errors
///
/// Propagates [`PipelineError`]s if either arm fails to compile or run.
pub fn check_allhit_closeness(
    program: &Program,
    tolerance: f64,
) -> Result<Vec<MetaViolation>, PipelineError> {
    let run = |scheduler| -> Result<u64, PipelineError> {
        let session = Experiment::builder()
            .program("allhit", program.clone())
            .compile_options(CompileOptions::new(scheduler).with_sim(allhit_config()))
            .build()
            .expect("program is supplied directly");
        Ok(session.run()?.metrics.cycles)
    };
    let balanced = run(bsched_core::SchedulerKind::Balanced)?;
    let traditional = run(bsched_core::SchedulerKind::Traditional)?;
    let max = balanced.max(traditional) as f64;
    let diff = balanced.abs_diff(traditional) as f64;
    let mut violations = Vec::new();
    if max > 0.0 && diff / max > tolerance {
        violations.push(MetaViolation::AllHitDivergence {
            balanced,
            traditional,
            tolerance,
        });
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_sim::InstCounts;

    fn plausible_metrics() -> SimMetrics {
        SimMetrics {
            cycles: 150,
            load_interlock: 20,
            fixed_interlock: 5,
            branch_penalty: 10,
            insts: InstCounts {
                short_int: 50,
                loads: 30,
                stores: 20,
                branches: 10,
                jumps: 5,
                ..InstCounts::default()
            },
            ..SimMetrics::default()
        }
    }

    #[test]
    fn conserved_metrics_pass() {
        let mut m = plausible_metrics();
        m.mem.l1d_hits = 25;
        m.mem.l2_hits = 5;
        m.mem.stores = 20;
        assert_eq!(check_metrics(&m), vec![]);
    }

    #[test]
    fn unconserved_memory_is_caught() {
        let mut m = plausible_metrics();
        m.mem.l1d_hits = 25; // 5 loads vanished
        m.mem.stores = 20;
        let v = check_metrics(&m);
        assert!(v
            .iter()
            .any(|x| matches!(x, MetaViolation::MemoryAccessesNotConserved { .. })));
    }

    #[test]
    fn broken_cycle_accounting_is_caught() {
        let mut m = plausible_metrics();
        m.mem.l1d_hits = 30;
        m.mem.stores = 20;
        m.cycles = 10; // below the stall floor
        let v = check_metrics(&m);
        assert!(v
            .iter()
            .any(|x| matches!(x, MetaViolation::CyclesBelowAccountedFloor { .. })));
        m.cycles = 100_000; // above instructions + stalls
        let v = check_metrics(&m);
        assert!(v
            .iter()
            .any(|x| matches!(x, MetaViolation::CyclesAboveAccountedCeiling { .. })));
    }

    #[test]
    fn broken_prefetch_accounting_is_caught() {
        let mut m = plausible_metrics();
        m.mem.l1d_hits = 30;
        m.mem.stores = 20;
        m.mem.prefetches = 2;
        m.mem.prefetch_useful = 5; // more useful than issued
        let v = check_metrics(&m);
        assert!(v
            .iter()
            .any(|x| matches!(x, MetaViolation::PrefetchAccountingBroken { .. })));
    }

    #[test]
    fn real_simulated_runs_satisfy_the_invariants() {
        let session = Experiment::builder().kernel("TRFD").build().unwrap();
        let run = session.run().unwrap();
        assert_eq!(check_metrics(&run.metrics), vec![]);
    }

    /// The invariants are per-machine properties: every description in
    /// the registry — across predictors, prefetchers, MSHR policies and
    /// issue widths — must satisfy cycle accounting, memory
    /// conservation, and prefetch accounting on a real kernel run.
    #[test]
    fn every_registered_machine_satisfies_the_invariants() {
        for info in bsched_sim::MachineSpec::registry() {
            let machine = bsched_sim::MachineSpec::named(info.name).unwrap();
            let session = Experiment::builder()
                .kernel("TRFD")
                .machine(machine)
                .build()
                .unwrap();
            let run = session.run().unwrap();
            assert!(run.checksum_ok, "{}: simulator diverged", info.name);
            assert_eq!(
                check_metrics(&run.metrics),
                vec![],
                "machine {} violates the per-cell invariants",
                info.name
            );
        }
    }
}
