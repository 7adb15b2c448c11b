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
//!   program under the proof-free decode, which must reproduce the
//!   judged run bit for bit.
//! * [`metamorphic`] — invariants every simulated run must satisfy:
//!   cycle accounting, cache-stats conservation, and all-hit
//!   balanced/traditional closeness.
//! * [`mod@fuzz`] — a seeded pipeline fuzzer that generates random
//!   loop-language kernels, drives them through the full stack under a
//!   fuel budget, and shrinks failures to minimal reproducers.
//!
//! [`verify_cell`] is the one conformance suite. It judges a compiled
//! program, its schedule audit and a run of it that the caller already
//! has; it compiles nothing and re-runs nothing the caller ran. The
//! harness (`bsched-harness`) calls it on every executed grid cell when
//! verification is requested (`--verify` / `BSCHED_VERIFY=1`), handing
//! it the cell's own compile and run; violations fail the run. The
//! fuzzer calls it on every generated case.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod differential;
pub mod fuzz;
pub mod legality;
pub mod metamorphic;

pub use differential::{
    check_checksum_with_fuel, check_engines, check_weights, sampling_rel_err, sampling_violations,
    DiffViolation, SAMPLING_CPI_MEAN_TOL, SAMPLING_CPI_TOL, SAMPLING_FLOOR_FRAC, SAMPLING_MISS_TOL,
    SAMPLING_STALL_TOL,
};
pub use fuzz::{fuzz, FuzzConfig, FuzzFailure, FuzzReport};
pub use legality::{
    assign_issue_cycles, check_issue_cycles, min_edge_latency, validate_region,
    validate_region_schedule, Violation,
};
pub use metamorphic::{
    allhit_config, check_allhit_closeness, check_metrics, stall_sum, MetaViolation,
};

use bsched_core::ScheduleAudit;
use bsched_ir::Program;
use bsched_pipeline::{Compiled, RunResult};
use bsched_sim::{MachineSpec, SimConfig, SimResult, Simulator};

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

/// The per-cell conformance suite. It judges `compiled` (compiled from
/// `source` with the schedule `audit`) and `run`, the caller's own
/// simulation of it on the machine `sim`:
///
/// * every region's schedule is proven legal over the audit;
/// * the audit's weights are recomputed with both weight
///   implementations;
/// * the compiled program and a fresh interpretation of `source` are
///   replayed through the interpreter, each under `fuel`, and their
///   checksums compared;
/// * `run` must match the source's reference checksum.
///
/// Then the simulator checks depend on the run. An exact run is
/// compared bit for bit with the proof-free decode ([`check_engines`])
/// and its metrics are checked against the metamorphic invariants. A
/// sampled run (`run.sample` is set) is compared with one exact run
/// ([`sampling_violations`]): exact-by-construction observables bit for
/// bit, estimates within the committed tolerances. The metamorphic
/// checks are skipped there: they are exact-accounting identities
/// (cycle accounting, cache conservation) that independently-scaled
/// cluster estimates need not satisfy.
#[must_use]
pub fn verify_cell(
    source: &Program,
    compiled: &Compiled,
    audit: &ScheduleAudit,
    run: &RunResult,
    sim: SimConfig,
    fuel: u64,
) -> CellVerification {
    let regions = audit.regions.len();
    let mut violations = Vec::new();
    for (ri, region) in audit.regions.iter().enumerate() {
        for v in legality::validate_region_schedule(region) {
            violations.push(format!("region {ri}: {v}"));
        }
    }
    violations.extend(
        differential::check_weights(audit)
            .iter()
            .map(ToString::to_string),
    );
    match differential::check_checksum_with_fuel(source, &compiled.program, fuel) {
        Ok(vs) => violations.extend(vs.iter().map(ToString::to_string)),
        Err(e) => violations.push(format!("interpreter error: {e}")),
    }
    if !run.checksum_ok {
        violations.push("simulator diverged from the reference interpreter".to_string());
    }
    let judged = sim_result(run);
    if run.sample.is_some() {
        match Simulator::for_machine(&compiled.program, &MachineSpec::custom(sim)).run() {
            Ok(exact) => violations.extend(
                sampling_violations(&exact, &judged)
                    .iter()
                    .map(ToString::to_string),
            ),
            Err(e) => violations.push(format!("simulator error: {e}")),
        }
    } else {
        violations.extend(
            check_engines(&compiled.program, sim, &judged)
                .iter()
                .map(ToString::to_string),
        );
        violations.extend(check_metrics(&run.metrics).iter().map(ToString::to_string));
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

/// The simulator's result inside a pipeline run, for the checks that
/// compare simulator results.
fn sim_result(run: &RunResult) -> SimResult {
    SimResult {
        metrics: run.metrics.clone(),
        checksum: run.checksum,
        sample: run.sample,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_core::SchedulerKind;
    use bsched_ir::Interp;
    use bsched_pipeline::{CompileOptions, Experiment, SampleConfig, Session, SimMode};

    fn trfd(scheduler: SchedulerKind, mode: SimMode) -> Session {
        Experiment::builder()
            .kernel("TRFD")
            .compile_options(CompileOptions::new(scheduler).with_unroll(4))
            .sim_mode(mode)
            .build()
            .unwrap()
    }

    /// Compiles `session` once with an audit, simulates it once, and
    /// hands both to the suite, as the harness does.
    fn verify(session: &Session, tamper: impl FnOnce(&mut RunResult)) -> CellVerification {
        let (compiled, audit) = session.compile_audited().unwrap();
        let sim = session.options().sim;
        let mut run = session.simulate(&compiled, sim).unwrap();
        tamper(&mut run);
        verify_cell(
            session.source(),
            &compiled,
            &audit,
            &run,
            sim,
            Interp::DEFAULT_FUEL,
        )
    }

    #[test]
    fn a_real_cell_verifies_clean() {
        let v = verify(&trfd(SchedulerKind::Balanced, SimMode::Exact), |_| {});
        assert!(v.regions > 0);
        assert!(v.is_clean(), "violations: {:#?}", v.violations);
    }

    #[test]
    fn a_real_cell_verifies_clean_under_sampling() {
        let sampled = SimMode::Sampled(SampleConfig::default());
        let v = verify(&trfd(SchedulerKind::Balanced, sampled), |run| {
            assert!(run.sample.is_some(), "the suite judges a sampled run");
        });
        assert!(v.regions > 0);
        assert!(v.is_clean(), "violations: {:#?}", v.violations);
    }

    #[test]
    fn corrupted_metrics_fail_the_cell() {
        let v = verify(&trfd(SchedulerKind::Balanced, SimMode::Exact), |run| {
            run.metrics.cycles = 1; // below any plausible accounting floor
        });
        assert!(!v.is_clean());
    }

    /// The suite judges the run it is handed, not a rerun of its own:
    /// the TS+LU4 cell's run handed over with the BS+LU4 compiled
    /// program is a divergence from the proof-free decode of that
    /// program.
    #[test]
    fn a_run_of_another_compile_is_an_engine_divergence() {
        let ts = trfd(SchedulerKind::Traditional, SimMode::Exact)
            .run()
            .unwrap();
        let v = verify(&trfd(SchedulerKind::Balanced, SimMode::Exact), |run| {
            assert_ne!(run.metrics, ts.metrics, "the arms must differ");
            *run = ts;
        });
        assert!(
            v.violations
                .iter()
                .any(|m| m.starts_with("simulation engines diverged")),
            "violations: {:#?}",
            v.violations
        );
    }
}
