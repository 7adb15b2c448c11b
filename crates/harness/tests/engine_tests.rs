//! Integration tests for the experiment engine: determinism across
//! worker counts, disk-cache round trips, and cache accounting.

use bsched_harness::{Engine, EngineConfig, ExperimentCell, HarnessError};
use bsched_ir::Program;
use bsched_pipeline::{CompileOptions, SchedulerKind};
use bsched_workloads::lang::ast::{Expr, Index};
use bsched_workloads::lang::{ArrayInit, Kernel};
use std::path::PathBuf;

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
            // Same display label as plain balanced — only the canonical
            // key separates them.
            CompileOptions::new(SchedulerKind::Balanced).with_weight_cap(10),
        ] {
            cells.push(ExperimentCell::new(kernel, opts));
        }
    }
    cells
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsched-engine-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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
        let cfg = EngineConfig::default()
            .with_jobs(jobs)
            .with_disk_cache(false);
        let engine = Engine::new(kernels(), cfg);
        engine.run(&cells).expect("grid runs");
        let fp = fingerprint(&engine, &cells);
        let report = engine.report();
        assert_eq!(report.executed, cells.len() as u64, "{jobs} workers");
        assert_eq!(report.hits(), 0, "{jobs} workers");
        match &baseline {
            None => baseline = Some(fp),
            Some(b) => assert_eq!(b, &fp, "worker count changed the results"),
        }
    }
}

#[test]
fn disk_cache_round_trips_and_counts_hits() {
    let dir = tmp_dir("roundtrip");
    let cells = cells();
    let cfg = || {
        EngineConfig::default()
            .with_jobs(2)
            .with_cache_dir(dir.clone())
    };

    // Cold run: everything executes, results land on disk.
    let cold = Engine::new(kernels(), cfg());
    cold.run(&cells).expect("cold run");
    let want = fingerprint(&cold, &cells);
    assert_eq!(cold.report().executed, cells.len() as u64);
    drop(cold);

    // Fresh engine, same directory: pure disk hits, nothing executes.
    let warm = Engine::new(kernels(), cfg());
    warm.run(&cells).expect("warm run");
    assert_eq!(warm.report().disk_hits, cells.len() as u64);
    assert_eq!(warm.report().executed, 0);
    assert_eq!(fingerprint(&warm, &cells), want);

    // Same engine again: now the memory layer answers.
    warm.run(&cells).expect("memory run");
    assert_eq!(warm.report().memory_hits, cells.len() as u64);

    // Dropping memory forces the disk layer again, with equal results.
    warm.clear_memory();
    warm.run(&cells).expect("post-clear run");
    assert_eq!(warm.report().disk_hits, 2 * cells.len() as u64);
    assert_eq!(warm.report().executed, 0);
    assert_eq!(fingerprint(&warm, &cells), want);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicates_within_a_batch_are_deduplicated() {
    let cfg = EngineConfig::default().with_jobs(2).with_disk_cache(false);
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
    let cfg = EngineConfig::default().with_jobs(1).with_disk_cache(false);
    let engine = Engine::new(kernels(), cfg);
    let plain = ExperimentCell::new("alpha", CompileOptions::new(SchedulerKind::Balanced));
    let capped = ExperimentCell::new(
        "alpha",
        CompileOptions::new(SchedulerKind::Balanced).with_weight_cap(4),
    );
    assert_eq!(plain.to_string(), capped.to_string(), "labels alias");
    engine.run(&[plain.clone(), capped.clone()]).expect("runs");
    assert_eq!(engine.report().executed, 2, "cells must not collapse");
}

#[test]
fn corrupt_cache_documents_recompute_without_panicking() {
    use bsched_harness::disk::DiskCache;
    let dir = tmp_dir("corruption");
    let cells = cells();
    let cfg = || {
        EngineConfig::default()
            .with_jobs(2)
            .with_cache_dir(dir.clone())
    };

    let cold = Engine::new(kernels(), cfg());
    cold.run(&cells).expect("cold run");
    let want = fingerprint(&cold, &cells);
    drop(cold);

    // Damage three documents three different ways: truncation (torn
    // write), garbage bytes, and a wrong schema stamp.
    let disk = DiskCache::new(&dir, true);
    let paths: Vec<PathBuf> = cells.iter().take(3).map(|c| disk.path_for(c)).collect();
    let full = std::fs::read_to_string(&paths[0]).unwrap();
    std::fs::write(&paths[0], &full[..full.len() / 2]).unwrap();
    std::fs::write(&paths[1], b"\x00\xffnot json at all").unwrap();
    std::fs::write(
        &paths[2],
        full.replacen("\"schema\":", "\"schema\":9999, \"x\":", 1),
    )
    .unwrap();

    // A fresh engine treats all three as misses — recomputed, counted
    // as executions, results unchanged.
    let warm = Engine::new(kernels(), cfg());
    warm.run(&cells).expect("corruption must not fail the run");
    let report = warm.report();
    assert_eq!(report.executed, 3, "each damaged document recomputes");
    assert_eq!(report.disk_hits, cells.len() as u64 - 3);
    assert_eq!(fingerprint(&warm, &cells), want);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_edited_kernel_misses_the_disk_cache_and_stores_its_own_result() {
    let dir = tmp_dir("edited");
    let cfg = || {
        EngineConfig::default()
            .with_jobs(1)
            .with_cache_dir(dir.clone())
    };
    let cell = ExperimentCell::new("alpha", CompileOptions::new(SchedulerKind::Balanced));
    let run = |program: (String, Program)| {
        let engine = Engine::new(vec![program], cfg());
        engine.run(std::slice::from_ref(&cell)).expect("runs");
        let cycles = engine.result(&cell).expect("stored").metrics.cycles;
        (engine.report(), cycles)
    };

    let (_, old) = run(tiny_kernel("alpha", 48, 3));
    // Another program under the same kernel name: the warm document
    // belongs to the old program, so it is a miss.
    let (report, new) = run(tiny_kernel("alpha", 64, 11));
    assert_eq!((report.disk_hits, report.executed), (0, 1));
    assert_ne!(old, new, "the edited program simulates differently");
    // The edited program's own result replaced the old document.
    let (report, again) = run(tiny_kernel("alpha", 64, 11));
    assert_eq!((report.disk_hits, report.executed), (1, 0));
    assert_eq!(again, new);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verifying_run_proves_every_cell_and_reports_it() {
    let cells = cells();
    let cfg = EngineConfig::default()
        .with_jobs(2)
        .with_disk_cache(false)
        .with_verify(true);
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
    let dir = tmp_dir("verify-upgrade");
    let cells = cells();
    let cfg = |verify: bool| {
        EngineConfig::default()
            .with_jobs(2)
            .with_cache_dir(dir.clone())
            .with_verify(verify)
    };

    // Plain run: results cached with verified == false.
    let plain = Engine::new(kernels(), cfg(false));
    plain.run(&cells).expect("plain run");
    let want = fingerprint(&plain, &cells);
    drop(plain);

    // A verifying engine must not trust them: every cell re-executes
    // (now under the conformance suite) and the upgraded entries land
    // back on disk.
    let checking = Engine::new(kernels(), cfg(true));
    checking.run(&cells).expect("verifying run");
    assert_eq!(
        checking.report().disk_hits,
        0,
        "unverified entries are misses"
    );
    assert_eq!(checking.report().executed, cells.len() as u64);
    assert_eq!(fingerprint(&checking, &cells), want);
    drop(checking);

    // Once verified, both verifying and plain engines take the hits.
    for verify in [true, false] {
        let warm = Engine::new(kernels(), cfg(verify));
        warm.run(&cells).expect("warm run");
        assert_eq!(
            warm.report().disk_hits,
            cells.len() as u64,
            "verify={verify}"
        );
        assert_eq!(warm.report().executed, 0, "verify={verify}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzz_iterations_reach_the_report() {
    let engine = Engine::new(kernels(), EngineConfig::default().with_disk_cache(false));
    engine.record_fuzz(1234);
    let report = engine.report();
    assert_eq!(report.fuzz_iterations, 1234);
    assert!(report.render().contains("1234 fuzz iterations"));
}

#[test]
fn unknown_kernels_are_rejected() {
    let cfg = EngineConfig::default().with_disk_cache(false);
    let engine = Engine::new(kernels(), cfg);
    let cell = ExperimentCell::new("nonesuch", CompileOptions::new(SchedulerKind::Balanced));
    match engine.run(std::slice::from_ref(&cell)) {
        Err(HarnessError::UnknownKernel(k)) => assert_eq!(k, "nonesuch"),
        other => panic!("expected UnknownKernel, got {other:?}"),
    }
}
