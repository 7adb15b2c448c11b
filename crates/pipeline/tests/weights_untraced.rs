//! Two exact gates on the balanced weight kernel, over every scheduled
//! region of every suite kernel compiled at unroll factor 8:
//!
//! * it carries no trace points: with the recorder on, `compute_weights`
//!   records nothing. Tracing a hot inner kernel would tax every traced
//!   run's compile; the scheduler traces per region around it instead;
//! * its work matches a recorded table: the contributors it scans and
//!   the bitset row words it reads, per kernel, by exact equality. A
//!   slide back to per-load DAG probes, or a wider row, moves them.
//!
//! Both replace wall-clock ratios that could not tell a trace point or
//! a slower kernel from host noise.
//!
//! The regions are compiled once, before either gate runs, so no
//! compile in this binary records events into the process-global
//! recorder while the first gate captures.

use bsched_core::{compute_weights, compute_weights_counted, RegionSchedule, WeightConfig};
use bsched_ir::Dag;
use bsched_pipeline::{CompileOptions, Experiment, SchedulerKind};
use std::sync::OnceLock;

/// A scheduled region with its DAG and weight configuration.
type Region = (RegionSchedule, Dag, WeightConfig);

/// Every suite kernel's scheduled regions at unroll 8, in suite order.
fn kernel_regions() -> &'static [(&'static str, Vec<Region>)] {
    static REGIONS: OnceLock<Vec<(&'static str, Vec<Region>)>> = OnceLock::new();
    REGIONS.get_or_init(|| {
        bsched_workloads::suite::all_kernels()
            .iter()
            .map(|kernel| {
                let (_, audit) = Experiment::builder()
                    .kernel(kernel.name)
                    .compile_options(CompileOptions::new(SchedulerKind::Balanced).with_unroll(8))
                    .build()
                    .expect("suite kernel")
                    .compile_audited()
                    .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
                let regions = audit
                    .regions
                    .into_iter()
                    .map(|region| {
                        let dag = Dag::new(&region.insts);
                        (region, dag, audit.config)
                    })
                    .collect();
                (kernel.name, regions)
            })
            .collect()
    })
}

#[test]
fn compute_weights_records_no_trace_events() {
    let regions: Vec<&Region> = kernel_regions().iter().flat_map(|(_, r)| r).collect();
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

#[test]
fn compute_weights_work_matches_the_recorded_table() {
    // (kernel, contributors scanned, row words read). No suite region
    // holds more than 64 loads, so every row is one word today.
    const RECORDED: [(&str, u64, u64); 17] = [
        ("ARC2D", 191, 191),
        ("BDNA", 61, 61),
        ("DYFESM", 109, 109),
        ("MDG", 165, 165),
        ("QCD2", 293, 293),
        ("TRFD", 93, 93),
        ("alvinn", 220, 220),
        ("dnasa7", 190, 190),
        ("doduc", 36, 36),
        ("ear", 107, 107),
        ("hydro2d", 203, 203),
        ("mdljdp2", 13, 13),
        ("ora", 106, 106),
        ("spice2g6", 157, 157),
        ("su2cor", 317, 317),
        ("swm256", 239, 239),
        ("tomcatv", 125, 125),
    ];
    let got: Vec<(&str, u64, u64)> = kernel_regions()
        .iter()
        .map(|(name, regions)| {
            let (mut contributors, mut row_words) = (0, 0);
            for (region, dag, config) in regions {
                let (weights, work) = compute_weights_counted(&region.insts, dag, config);
                assert_eq!(
                    weights, region.weights,
                    "{name}: the counted kernel's weights"
                );
                contributors += work.contributors;
                row_words += work.row_words;
            }
            (*name, contributors, row_words)
        })
        .collect();
    assert_eq!(
        got, RECORDED,
        "weight-kernel work counts (kernel, contributors, row words) moved"
    );
}
