//! The balanced weight kernel carries no trace points: with the recorder
//! on, `compute_weights` over every scheduled region of every suite
//! kernel records nothing. Tracing a hot inner kernel would tax every
//! traced run's compile; the scheduler traces per region around it
//! instead. This pins that structurally, where a wall-clock ratio of
//! the recorder's off state could not tell a trace point from host
//! noise.
//!
//! This file holds one test, so no other test of its binary records
//! events into the process-global recorder while it captures.

use bsched_core::compute_weights;
use bsched_ir::Dag;
use bsched_pipeline::{CompileOptions, Experiment, SchedulerKind};

#[test]
fn compute_weights_records_no_trace_events() {
    let mut regions = Vec::new();
    for kernel in bsched_workloads::suite::all_kernels() {
        let (_, audit) = Experiment::builder()
            .kernel(kernel.name)
            .compile_options(CompileOptions::new(SchedulerKind::Balanced).with_unroll(8))
            .build()
            .expect("suite kernel")
            .compile_audited()
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        for region in audit.regions {
            let dag = Dag::new(&region.insts);
            regions.push((region, dag, audit.config));
        }
    }
    assert!(regions.len() > 17, "every kernel has scheduled regions");

    let (weights, events) = bsched_trace::capture(|| {
        regions
            .iter()
            .map(|(region, dag, config)| compute_weights(&region.insts, dag, config))
            .collect::<Vec<_>>()
    });
    assert!(
        events.is_empty(),
        "compute_weights recorded {} trace events, first {:?}",
        events.len(),
        events.first()
    );
    for ((region, ..), got) in regions.iter().zip(&weights) {
        assert_eq!(
            &region.weights, got,
            "the captured kernel computed the scheduled weights"
        );
    }
}
