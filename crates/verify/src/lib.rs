//! `bsched-verify` — the conformance subsystem: proofs that the numbers
//! in every table came from legal schedules and a sound machine.
//!
//! Four pillars, one per module:
//!
//! * [`legality`] — the schedule-legality validator. Rebuilds each
//!   region's dependence DAG from a [`bsched_core::ScheduleAudit`] and
//!   proves the emitted order is a permutation that respects every
//!   dependence edge and the issue-latency floor.
//! * [`differential`] — the differential oracle. Replays optimized code
//!   through the reference interpreter against the unoptimized baseline,
//!   recomputes scheduler weights with both the bitset kernel and
//!   the retained naive implementation, and simulates the compiled
//!   program under both engines (interpreting and block-compiled),
//!   which must agree bit for bit.
//! * [`metamorphic`] — invariants every simulated run must satisfy:
//!   cycle accounting, cache-stats conservation, and all-hit
//!   balanced/traditional closeness.
//! * [`mod@fuzz`] — a seeded pipeline fuzzer that generates random
//!   loop-language kernels, drives them through the full stack under a
//!   fuel budget, and shrinks failures to minimal reproducers.
//!
//! The harness (`bsched-harness`) calls [`verify_cell_in`] on every
//! executed grid cell when verification is requested (`--verify` /
//! `BSCHED_VERIFY=1`); violations fail the run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod differential;
pub mod fuzz;
pub mod legality;
pub mod metamorphic;

pub use differential::{
    check_checksum, check_checksum_with_fuel, check_engines, check_sampling, check_weights,
    sampling_rel_err, sampling_violations, DiffViolation, SAMPLING_CPI_MEAN_TOL, SAMPLING_CPI_TOL,
    SAMPLING_FLOOR_FRAC, SAMPLING_MISS_TOL, SAMPLING_STALL_TOL,
};
pub use fuzz::{fuzz, FuzzConfig, FuzzFailure, FuzzReport};
pub use legality::{
    assign_issue_cycles, check_issue_cycles, min_edge_latency, validate_region,
    validate_region_schedule, Violation,
};
pub use metamorphic::{
    allhit_config, check_allhit_closeness, check_metrics, stall_sum, MetaViolation,
};

use bsched_pipeline::{CompileOptions, Experiment, Source};
use bsched_sim::{SampleConfig, SimMetrics, SimMode};
use std::sync::Arc;

/// The verdict on one grid cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellVerification {
    /// Scheduling regions whose legality was proven.
    pub regions: usize,
    /// Every violation found, rendered for the report. Empty means the
    /// cell is verified.
    pub violations: Vec<String>,
}

impl CellVerification {
    /// True when no check failed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the full per-cell conformance suite on one (source × options)
/// point simulated exactly: [`verify_cell_in`] under [`SimMode::Exact`],
/// with `metrics` the simulated run the caller already has.
#[must_use]
pub fn verify_cell(
    source: &Arc<Source>,
    options: &CompileOptions,
    metrics: &SimMetrics,
) -> CellVerification {
    verify_cell_in(SimMode::Exact, source, options, metrics)
}

/// The conformance suite for a cell simulated under `sample`:
/// [`verify_cell_in`] under [`SimMode::Sampled`].
#[must_use]
pub fn verify_cell_sampled(
    source: &Arc<Source>,
    options: &CompileOptions,
    sample: SampleConfig,
) -> CellVerification {
    verify_cell_in(
        SimMode::Sampled(sample),
        source,
        options,
        &SimMetrics::default(),
    )
}

/// The per-cell conformance suite. Whatever the mode, it recompiles the
/// cell from `source` with a schedule audit (sharing the source's
/// reference checksum with every other session on it), proves every region's schedule legal,
/// cross-checks the weights against both reference implementations and
/// replays optimized vs unoptimized code through the interpreter. Then
/// the mode picks the simulator checks:
///
/// * [`SimMode::Exact`] simulates the compiled program under both
///   engines, which must agree bit for bit, and checks the metamorphic
///   invariants on `metrics` (the simulated run the caller already has).
/// * [`SimMode::Sampled`] runs the sampling diff ([`check_sampling`]):
///   exact-by-construction observables must match bit for bit, and
///   estimates must land within the committed tolerances. `metrics` is
///   not read. The metamorphic checks are deliberately skipped: they
///   are exact-accounting identities (cycle accounting, cache
///   conservation) that independently-scaled cluster estimates need
///   not satisfy.
#[must_use]
pub fn verify_cell_in(
    mode: SimMode,
    source: &Arc<Source>,
    options: &CompileOptions,
    metrics: &SimMetrics,
) -> CellVerification {
    let mut regions = 0;
    let mut violations = Vec::new();
    let session = Experiment::builder()
        .source("cell", Arc::clone(source))
        .compile_options(*options)
        .build()
        .expect("program is supplied directly");
    match session.compile_audited() {
        Ok((compiled, audit)) => {
            regions = audit.regions.len();
            for (ri, region) in audit.regions.iter().enumerate() {
                for v in legality::validate_region_schedule(region) {
                    violations.push(format!("region {ri}: {v}"));
                }
            }
            for v in differential::check_weights(&audit) {
                violations.push(v.to_string());
            }
            match differential::check_checksum(session.source(), &compiled.program) {
                Ok(vs) => violations.extend(vs.iter().map(ToString::to_string)),
                Err(e) => violations.push(format!("interpreter error: {e}")),
            }
            let simulated = match mode {
                SimMode::Exact => differential::check_engines(&compiled.program, options.sim),
                SimMode::Sampled(sample) => {
                    differential::check_sampling(&compiled.program, options.sim, sample)
                }
            };
            match simulated {
                Ok(vs) => violations.extend(vs.iter().map(ToString::to_string)),
                Err(e) => violations.push(format!("simulator error: {e}")),
            }
        }
        Err(e) => violations.push(format!("audited recompile failed: {e}")),
    }
    if mode == SimMode::Exact {
        violations.extend(
            metamorphic::check_metrics(metrics)
                .iter()
                .map(ToString::to_string),
        );
    }
    // Violations carry trace context: one event per message, so a
    // `--trace-json` export pairs every failure with the pass spans and
    // load-site attribution recorded around it.
    if bsched_trace::enabled() {
        for v in &violations {
            bsched_trace::instant(
                bsched_trace::points::VERIFY_VIOLATION,
                v,
                &[("regions", regions as u64)],
            );
        }
    }
    CellVerification {
        regions,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_core::SchedulerKind;
    use bsched_pipeline::resolve_kernel;

    fn trfd() -> Arc<Source> {
        Arc::new(Source::new(resolve_kernel("TRFD").unwrap()))
    }

    #[test]
    fn a_real_cell_verifies_clean() {
        let source = trfd();
        let options = CompileOptions::new(SchedulerKind::Balanced);
        let session = Experiment::builder()
            .source("TRFD", Arc::clone(&source))
            .compile_options(options)
            .build()
            .unwrap();
        let run = session.run().unwrap();
        let v = verify_cell(&source, &options, &run.metrics);
        assert!(v.regions > 0);
        assert!(v.is_clean(), "violations: {:#?}", v.violations);
    }

    #[test]
    fn a_real_cell_verifies_clean_under_sampling() {
        let options = CompileOptions::new(SchedulerKind::Balanced);
        let v = verify_cell_sampled(&trfd(), &options, SampleConfig::default());
        assert!(v.regions > 0);
        assert!(v.is_clean(), "violations: {:#?}", v.violations);
    }

    #[test]
    fn corrupted_metrics_fail_the_cell() {
        let source = trfd();
        let options = CompileOptions::new(SchedulerKind::Balanced);
        let session = Experiment::builder()
            .source("TRFD", Arc::clone(&source))
            .compile_options(options)
            .build()
            .unwrap();
        let mut metrics = session.run().unwrap().metrics;
        metrics.cycles = 1; // below any plausible accounting floor
        let v = verify_cell(&source, &options, &metrics);
        assert!(!v.is_clean());
    }
}
