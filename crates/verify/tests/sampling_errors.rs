//! Error-bound regression suite for sampled simulation.
//!
//! Runs a kernel subset of the standard experiment grid in both exact
//! and sampled mode under the *default* [`SampleConfig`] and holds the
//! estimates to the committed tolerances
//! ([`bsched_verify::SAMPLING_CPI_TOL`] and friends). The release-mode
//! sampling bench enforces the same bounds over the full 255-cell grid;
//! this suite keeps a fast, debug-friendly subset in `cargo test` so an
//! estimator regression fails in CI before anyone runs a bench.

use bsched_pipeline::{standard_grid, Experiment, SampleConfig, SimMode};
use bsched_sim::{MachineSpec, SimEngine, Simulator};
use bsched_verify::{
    sampling_rel_err, sampling_violations, SAMPLING_CPI_MEAN_TOL, SAMPLING_CPI_TOL,
};

/// The sweep kernels: one large, phase-rich kernel and one small one.
const KERNELS: [&str; 2] = ["ARC2D", "TRFD"];

fn kernel(name: &str) -> bsched_ir::Program {
    bsched_workloads::all_kernels()
        .iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("unknown kernel {name}"))
        .program()
}

/// Every (kernel × standard grid) cell: label, exact run, sampled run.
fn sweep() -> Vec<(String, bsched_sim::SimResult, bsched_sim::SimResult)> {
    let mut out = Vec::new();
    for name in KERNELS {
        let program = kernel(name);
        for cfg in standard_grid() {
            let session = Experiment::builder()
                .program(name, program.clone())
                .compile_options(cfg.options())
                .build()
                .expect("standard grid compiles");
            let compiled = session.compile().expect("standard grid compiles").program;
            let sim = session.options().sim;
            let run = |mode| {
                Simulator::for_machine(&compiled, &MachineSpec::custom(sim))
                    .with_engine(SimEngine::BlockCompiled)
                    .with_mode(mode)
                    .run()
                    .expect("standard grid simulates")
            };
            let exact = run(SimMode::Exact);
            let sampled = run(SimMode::Sampled(SampleConfig::default()));
            out.push((format!("{name}/{}", session.label()), exact, sampled));
        }
    }
    out
}

#[test]
fn every_cell_estimate_is_within_the_committed_tolerances() {
    for (cell, exact, sampled) in sweep() {
        let violations = sampling_violations(&exact, &sampled);
        assert!(
            violations.is_empty(),
            "first out-of-tolerance cell {cell}: {}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        );
    }
}

#[test]
fn sweep_mean_cpi_error_is_under_the_mean_bound() {
    let cells = sweep();
    let mut worst = (0.0f64, String::new());
    let mut sum = 0.0f64;
    for (cell, exact, sampled) in &cells {
        // Instruction counts are exact by construction (the previous
        // test pins that), so CPI relative error equals cycles relative
        // error.
        let err = sampling_rel_err(sampled.metrics.cycles, exact.metrics.cycles, 1);
        if err > worst.0 {
            worst = (err, cell.clone());
        }
        sum += err;
    }
    let mean = sum / cells.len() as f64;
    assert!(
        mean <= SAMPLING_CPI_MEAN_TOL,
        "mean CPI error {:.2}% over {} cells exceeds {:.0}% (worst: {} at {:.2}%)",
        mean * 100.0,
        cells.len(),
        SAMPLING_CPI_MEAN_TOL * 100.0,
        worst.1,
        worst.0 * 100.0
    );
    assert!(
        worst.0 <= SAMPLING_CPI_TOL,
        "max CPI error {:.2}% at {} exceeds {:.0}%",
        worst.0 * 100.0,
        worst.1,
        SAMPLING_CPI_TOL * 100.0
    );
}

#[test]
fn an_out_of_tolerance_estimate_is_reported_by_metric() {
    // A fabricated off-estimate is reported with the metric, both
    // values, and the tolerance, so the failing cell is identifiable
    // from the message alone.
    let session = Experiment::builder()
        .program("TRFD", kernel("TRFD"))
        .build()
        .expect("defaults compile");
    let compiled = session.compile().expect("defaults compile").program;
    let mut exact = Simulator::for_machine(&compiled, &MachineSpec::custom(session.options().sim))
        .with_engine(SimEngine::BlockCompiled)
        .run()
        .expect("simulates");
    let mut sampled = exact.clone();
    sampled.metrics.cycles += exact.metrics.cycles / 10 + 1; // ~+10% CPI
    exact.metrics.load_interlock = 0;
    sampled.metrics.load_interlock = 0;
    let violations = sampling_violations(&exact, &sampled);
    assert_eq!(violations.len(), 1, "{violations:?}");
    let message = violations[0].to_string();
    assert!(message.contains("cpi"), "{message}");
}
