//! Integration tests for the experiment engine: determinism across
//! worker counts, memo accounting, and verification upgrades.

use bsched_harness::{Engine, EngineConfig, ExperimentCell, HarnessError};
use bsched_ir::Program;
use bsched_pipeline::{CompileOptions, SchedulerKind};
use bsched_workloads::lang::ast::{Expr, Index};
use bsched_workloads::lang::{ArrayInit, Kernel};

/// A small kernel so the whole grid runs in well under a second.
fn tiny_kernel(name: &str, n: i64, seed: u64) -> (String, Program) {
    let mut k = Kernel::new(name);
    let a = k.array("a", (n + 8) as u64, ArrayInit::Random(seed));
    let out = k.array("out", (n + 8) as u64, ArrayInit::Zero);
    let i = k.int_var("i");
    let body = vec![k.store(
        out,
        Index::of(i),
        Expr::load(a, Index::of(i)) * Expr::Float(1.5) + Expr::load(a, Index::of_plus(i, 1)),
    )];
    k.push(k.for_loop(i, Expr::Int(0), Expr::Int(n), body));
    (name.to_string(), k.lower())
}

fn kernels() -> Vec<(String, Program)> {
    vec![tiny_kernel("alpha", 48, 3), tiny_kernel("beta", 64, 11)]
}

fn cells() -> Vec<ExperimentCell> {
    let mut cells = Vec::new();
    for kernel in ["alpha", "beta"] {
        for opts in [
            CompileOptions::new(SchedulerKind::Balanced),
            CompileOptions::new(SchedulerKind::Traditional),
            CompileOptions::new(SchedulerKind::Balanced).with_unroll(4),
            // Same table label as plain balanced; only the weight cap
            // separates them.
            CompileOptions::new(SchedulerKind::Balanced).with_weight_cap(10),
        ] {
            cells.push(ExperimentCell::new(kernel, opts));
        }
    }
    cells
}

/// Debug output covers every metric field, so equal strings mean equal
/// metrics.
fn fingerprint(engine: &Engine, cells: &[ExperimentCell]) -> Vec<String> {
    cells
        .iter()
        .map(|c| {
            let r = engine.result(c).expect("cell was run");
            assert!(r.checksum_ok);
            format!("{c}: {:?}", r.metrics)
        })
        .collect()
}

#[test]
fn results_are_identical_across_worker_counts() {
    let cells = cells();
    let mut baseline = None;
    for jobs in [1usize, 4] {
        let cfg = EngineConfig::default().with_jobs(jobs);
        let engine = Engine::new(kernels(), cfg);
        engine.run(&cells).expect("grid runs");
        let fp = fingerprint(&engine, &cells);
        let report = engine.report();
        assert_eq!(report.executed, cells.len() as u64, "{jobs} workers");
        assert_eq!(report.memory_hits, 0, "{jobs} workers");
        match &baseline {
            None => baseline = Some(fp),
            Some(b) => assert_eq!(b, &fp, "worker count changed the results"),
        }
    }
}

#[test]
fn duplicates_within_a_batch_are_deduplicated() {
    let cfg = EngineConfig::default().with_jobs(2);
    let engine = Engine::new(kernels(), cfg);
    let one = ExperimentCell::new("alpha", CompileOptions::new(SchedulerKind::Balanced));
    let batch = vec![one.clone(), one.clone(), one.clone()];
    engine.run(&batch).expect("runs");
    let report = engine.report();
    assert_eq!(report.requested, 3);
    assert_eq!(report.deduplicated, 2);
    assert_eq!(report.executed, 1);
}

#[test]
fn same_label_different_options_are_distinct_cells() {
    let cfg = EngineConfig::default().with_jobs(1);
    let engine = Engine::new(kernels(), cfg);
    let plain = ExperimentCell::new("alpha", CompileOptions::new(SchedulerKind::Balanced));
    let capped = ExperimentCell::new(
        "alpha",
        CompileOptions::new(SchedulerKind::Balanced).with_weight_cap(4),
    );
    assert_eq!(
        plain.options().label(),
        capped.options().label(),
        "table labels alias"
    );
    assert_ne!(plain.to_string(), capped.to_string(), "cell labels do not");
    engine.run(&[plain.clone(), capped.clone()]).expect("runs");
    assert_eq!(engine.report().executed, 2, "cells must not collapse");
}

#[test]
fn verifying_run_proves_every_cell_and_reports_it() {
    let cells = cells();
    let cfg = EngineConfig::default().with_jobs(2).with_verify(true);
    let engine = Engine::new(kernels(), cfg);
    engine.run(&cells).expect("grid verifies");
    let report = engine.report();
    assert_eq!(report.executed, cells.len() as u64);
    assert_eq!(report.verified, cells.len() as u64);
    assert_eq!(report.violations, 0);
    for c in &cells {
        assert!(engine.result(c).unwrap().verified, "{c} not verified");
    }
    assert!(report.render().contains("cells verified"));
}

#[test]
fn verifying_run_recomputes_unverified_cache_entries() {
    let cells = cells();
    let n = cells.len() as u64;
    let engine = Engine::new(kernels(), EngineConfig::default().with_jobs(2));

    // Plain run: results memoized with verified == false.
    for outcome in engine.run_where(&cells, false) {
        assert!(!outcome.expect("plain run").verified);
    }
    let want = fingerprint(&engine, &cells);

    // A verifying batch in the same engine must not trust them: every
    // cell re-executes under the conformance suite, with equal metrics.
    for outcome in engine.run_where(&cells, true) {
        assert!(outcome.expect("verifying run").verified);
    }
    let report = engine.report();
    assert_eq!(report.memory_hits, 0, "unverified entries are misses");
    assert_eq!(report.executed, 2 * n);
    assert_eq!(report.verified, n);
    assert_eq!(fingerprint(&engine, &cells), want);

    // Once verified, both verifying and plain batches take the hits.
    for verify in [true, false] {
        for outcome in engine.run_where(&cells, verify) {
            assert!(outcome.expect("warm run").verified, "verify={verify}");
        }
    }
    let report = engine.report();
    assert_eq!(report.memory_hits, 2 * n);
    assert_eq!(report.executed, 2 * n, "nothing re-executed");
}

#[test]
fn fuzz_iterations_reach_the_report() {
    let engine = Engine::new(kernels(), EngineConfig::default());
    engine.record_fuzz(1234);
    let report = engine.report();
    assert_eq!(report.fuzz_iterations, 1234);
    assert!(report.render().contains("1234 fuzz iterations"));
}

#[test]
fn unknown_kernels_are_rejected() {
    let engine = Engine::new(kernels(), EngineConfig::default());
    let cell = ExperimentCell::new("nonesuch", CompileOptions::new(SchedulerKind::Balanced));
    match engine.run(std::slice::from_ref(&cell)) {
        Err(HarnessError::UnknownKernel(k)) => assert_eq!(k, "nonesuch"),
        other => panic!("expected UnknownKernel, got {other:?}"),
    }
}
