//! Cells that differ only in the simulated machine share one compile:
//! the engine compiles each kernel × options once per batch, simulates
//! it on every member's machine, and keeps every per-cell check and
//! failure per cell.

use bsched_harness::disk::DiskCache;
use bsched_harness::{Engine, EngineConfig, ExperimentCell, HarnessError};
use bsched_ir::{Function, Inst, Op, Program, RegClass};
use bsched_pipeline::{CompileOptions, Experiment, MachineSpec, SchedulerKind};
use bsched_trace::points;
use bsched_workloads::lang::ast::{Expr, Index};
use bsched_workloads::lang::{ArrayInit, Kernel};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The trace recorder is process-global: a capture would also record
/// the spans of tests running beside it, so every test here holds this.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`TRACE_LOCK`], recovering it if a failed test poisoned it.
fn trace_lock() -> MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn registry_machines() -> Vec<MachineSpec> {
    MachineSpec::registry()
        .iter()
        .map(|m| MachineSpec::named(m.name).expect("registry names parse"))
        .collect()
}

const ARMS: [SchedulerKind; 3] = [
    SchedulerKind::Traditional,
    SchedulerKind::Balanced,
    SchedulerKind::Exact,
];

/// The deterministic gate on compile sharing: ARC2D and TRFD × the
/// three arms at LU 4 × the six registry machines is 36 cells from 6
/// compiles, and every cell equals its own `Session::run`.
#[test]
fn zoo_cells_compile_once_per_kernel_and_arm() {
    let _lock = trace_lock();
    let kernels = ["ARC2D", "TRFD"];
    let machines = registry_machines();
    assert_eq!(machines.len(), 6);
    let programs = kernels
        .iter()
        .map(|&k| {
            let spec = bsched_workloads::kernel_by_name(k).expect("suite kernel");
            (k.to_string(), spec.program())
        })
        .collect();
    let engine = Engine::new(
        programs,
        EngineConfig::default().with_jobs(2).with_disk_cache(false),
    );
    let mut cells = Vec::new();
    for m in &machines {
        for kernel in kernels {
            for arm in ARMS {
                let opts = CompileOptions::new(arm).with_unroll(4).with_sim(m.config());
                cells.push(ExperimentCell::new(kernel, opts));
            }
        }
    }
    assert_eq!(cells.len(), 36);

    let (result, events) = bsched_trace::capture(|| engine.run(&cells));
    result.expect("zoo cells run");
    let count = |id| events.iter().filter(|e| e.id == id).count();
    assert_eq!(
        count(points::PIPELINE_COMPILE),
        6,
        "one compile per kernel × arm"
    );
    assert_eq!(count(points::HARNESS_CELL), 36, "one span per cell");
    let report = engine.report();
    assert_eq!((report.executed, report.compiles), (36, 6));
    assert!(
        report.render().contains("36 executed from 6 compiles"),
        "{}",
        report.render()
    );

    for cell in &cells {
        let got = engine.result(cell).expect("cell was run");
        let want = Experiment::builder()
            .source(
                cell.kernel(),
                Arc::clone(engine.source(cell.kernel()).expect("kernel")),
            )
            .compile_options(*cell.options())
            .build()
            .expect("source supplied")
            .run()
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
        assert_eq!(
            got.metrics,
            want.metrics,
            "{cell} on {:?}",
            cell.options().sim
        );
        assert_eq!(got.checksum_ok, want.checksum_ok, "{cell}");
    }
}

/// A small streaming kernel that compiles and runs.
fn tiny(name: &str) -> Program {
    let mut k = Kernel::new(name);
    let a = k.array("a", 40, ArrayInit::Random(3));
    let out = k.array("out", 40, ArrayInit::Zero);
    let i = k.int_var("i");
    let body = vec![k.store(
        out,
        Index::of(i),
        Expr::load(a, Index::of(i)) * Expr::Float(1.5),
    )];
    k.push(k.for_loop(i, Expr::Int(0), Expr::Int(32), body));
    k.lower()
}

/// An `add` that writes a float register: rejected by the IR verifier,
/// so every compile of it fails.
fn malformed(name: &str) -> Program {
    let mut p = Program::new(name);
    let mut f = Function::new("main");
    let i = f.new_reg(RegClass::Int);
    let x = f.new_reg(RegClass::Float);
    let e = f.entry();
    let mut bad = Inst::op(Op::Add, i, &[i, i]);
    bad.dst = Some(x);
    f.block_mut(e).insts.push(bad);
    p.set_main(f);
    p
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsched-sharing-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The kernel and label of a failed cell.
fn failed_cell(result: Result<(), HarnessError>) -> String {
    match result {
        Err(HarnessError::Cell { cell, msg }) => {
            assert!(msg.contains("verif"), "the compile's own error: {msg}");
            cell
        }
        other => panic!("expected a cell failure, got {other:?}"),
    }
}

/// A failing compile fails every member of its group, the first
/// failure in request order is the one reported, and none of the
/// failed cells reaches the memo store or the disk cache.
#[test]
fn a_failed_compile_fails_every_member_and_stores_nothing() {
    let _lock = trace_lock();
    let dir = tmp_dir("failure");
    let engine = Engine::new(
        vec![
            ("ok".to_string(), tiny("ok")),
            ("bad".to_string(), malformed("bad")),
            ("worse".to_string(), malformed("worse")),
        ],
        EngineConfig::default()
            .with_jobs(2)
            .with_cache_dir(dir.clone()),
    );
    let opts = CompileOptions::new(SchedulerKind::Balanced);
    let on_machines = |kernel: &str| -> Vec<ExperimentCell> {
        registry_machines()
            .iter()
            .take(3)
            .map(|m| ExperimentCell::new(kernel, opts.with_sim(m.config())))
            .collect()
    };
    let bad = on_machines("bad");
    let ok = on_machines("ok");
    let worse = ExperimentCell::new("worse", opts);

    // Each member alone fails, under its own label.
    for cell in &bad {
        assert_eq!(
            failed_cell(engine.run(std::slice::from_ref(cell))),
            cell.to_string()
        );
    }
    // In one batch with another failing group, whichever group's member
    // comes first in request order is reported, wherever the group's
    // other members sit.
    for first in 0..bad.len() {
        let mut rotated = bad.clone();
        rotated.rotate_left(first);
        let mut batch = vec![rotated[0].clone(), worse.clone()];
        batch.extend(rotated[1..].iter().cloned());
        assert_eq!(failed_cell(engine.run(&batch)), rotated[0].to_string());
        batch.swap(0, 1);
        assert_eq!(failed_cell(engine.run(&batch)), "worse/BS");
    }

    // Interleaved with a group that succeeds, each outcome reaches its
    // own cell: both succeeding cells are stored, on either side of the
    // first failure, and no failed cell is.
    let batch = [
        ok[0].clone(),
        bad[0].clone(),
        ok[1].clone(),
        bad[1].clone(),
        bad[2].clone(),
    ];
    assert_eq!(failed_cell(engine.run(&batch)), bad[0].to_string());
    assert!(
        engine.result(&ok[0]).is_some(),
        "ok[0] precedes the failure"
    );
    assert!(engine.result(&ok[1]).is_some(), "ok[1] stored");

    let disk = DiskCache::new(&dir, true);
    for cell in bad.iter().chain([&worse]) {
        assert!(
            engine.result(cell).is_none(),
            "{cell} reached the memo store"
        );
        assert!(
            !disk.path_for(cell).exists(),
            "{cell} reached the disk cache"
        );
    }
    assert_eq!(engine.store().len(), 2, "only ok[0] and ok[1] were stored");
    let _ = std::fs::remove_dir_all(&dir);
}
