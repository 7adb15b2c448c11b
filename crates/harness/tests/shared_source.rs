//! The engine's shared per-kernel `Source`: its reference result is
//! computed once per kernel, and sessions built from it return exactly
//! what sessions built from a freshly lowered program return.

use bsched_harness::{Engine, EngineConfig, ExperimentCell};
use bsched_ir::Interp;
use bsched_pipeline::{standard_grid, CompileOptions, Experiment, RunResult, SchedulerKind};
use bsched_trace::points;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The trace recorder is process-global: a capture would also record
/// the spans of tests running beside it, so every test here holds this.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`TRACE_LOCK`], recovering it if a failed test poisoned it.
fn trace_lock() -> MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn uncached(jobs: usize) -> EngineConfig {
    EngineConfig::default()
        .with_jobs(jobs)
        .with_disk_cache(false)
}

/// Everything a caller can see of a run, so equal strings mean equal
/// results.
fn fingerprint(run: &RunResult) -> String {
    format!(
        "{:?} | {:?} | {} | {:?}",
        run.metrics, run.compile, run.checksum_ok, run.sample
    )
}

#[test]
fn one_reference_span_per_kernel_across_its_cells() {
    let _lock = trace_lock();
    let program = bsched_workloads::kernel_by_name("TRFD")
        .expect("TRFD is a suite kernel")
        .program();
    let engine = Engine::new(vec![("TRFD".to_string(), program)], uncached(2));
    let cells: Vec<ExperimentCell> = standard_grid()
        .iter()
        .map(|c| ExperimentCell::new("TRFD", c.options()))
        .collect();
    assert_eq!(cells.len(), 15);

    let (result, events) = bsched_trace::capture(|| engine.run(&cells));
    result.expect("grid runs");
    assert_eq!(engine.report().executed, 15);
    let count = |id| events.iter().filter(|e| e.id == id).count();
    assert_eq!(
        count(points::PIPELINE_REFERENCE),
        1,
        "one reference run per kernel"
    );
    assert_eq!(count(points::PIPELINE_COMPILE), 15, "one compile per cell");
    let reference = events
        .iter()
        .find(|e| e.id == points::PIPELINE_REFERENCE)
        .expect("counted above");
    assert_eq!(reference.label, "TRFD");
}

#[test]
fn shared_source_matches_a_freshly_lowered_program() {
    let _lock = trace_lock();
    let engine = Engine::with_standard_kernels(uncached(1));
    let configs = [
        CompileOptions::new(SchedulerKind::Traditional),
        CompileOptions::new(SchedulerKind::Balanced).with_unroll(4),
    ];
    for kernel in bsched_workloads::all_kernels() {
        let source = engine.source(kernel.name).expect("standard kernel");
        let fresh = kernel.program();
        for opts in &configs {
            let shared = Experiment::builder()
                .source(kernel.name, Arc::clone(source))
                .compile_options(*opts)
                .build()
                .expect("source supplied")
                .run()
                .unwrap_or_else(|e| panic!("{} under {}: {e}", kernel.name, opts.label()));
            let own = Experiment::builder()
                .program(kernel.name, fresh.clone())
                .compile_options(*opts)
                .build()
                .expect("program supplied")
                .run()
                .unwrap_or_else(|e| panic!("{} under {}: {e}", kernel.name, opts.label()));
            assert!(shared.checksum_ok, "{} under {}", kernel.name, opts.label());
            assert_eq!(
                fingerprint(&shared),
                fingerprint(&own),
                "{} under {}",
                kernel.name,
                opts.label()
            );
        }
        let want = Interp::new(&fresh).run().expect("kernel runs").checksum;
        assert_eq!(
            source.reference_checksum().expect("kernel verifies"),
            want,
            "{}",
            kernel.name
        );
    }
}
