//! Locality study: run locality analysis on a stencil kernel and show the
//! classification, the transformation, and the simulated effect of
//! selective balanced scheduling (paper §3.3 / Table 9).
//!
//! ```sh
//! cargo run --release --example locality_study
//! ```

use balanced_scheduling::opt::{analyze_locality, ReuseKind};
use balanced_scheduling::workloads::kernel_by_name;
use balanced_scheduling::{CompileOptions, Experiment, SchedulerKind};

fn main() {
    let spec = kernel_by_name("tomcatv").expect("tomcatv exists");
    let program = spec.program();

    // 1. What does the analysis see?
    let refs = analyze_locality(program.main());
    let spatial = refs
        .iter()
        .filter(|r| matches!(r.kind, ReuseKind::Spatial { .. }))
        .count();
    let temporal = refs
        .iter()
        .filter(|r| r.kind == ReuseKind::Temporal)
        .count();
    let aligned = refs.iter().filter(|r| r.aligned).count();
    println!(
        "tomcatv inner loops: {} classified references ({spatial} spatial, \
         {temporal} temporal, {aligned} with provable line alignment)\n",
        refs.len()
    );

    // 2. What does it buy at run time?
    println!(
        "{:<28} {:>12} {:>14} {:>8}",
        "configuration", "cycles", "load stalls", "CPI"
    );
    for (label, opts) in [
        ("balanced", CompileOptions::new(SchedulerKind::Balanced)),
        (
            "balanced + LA",
            CompileOptions::new(SchedulerKind::Balanced).with_locality(),
        ),
        (
            "balanced + LA + LU8",
            CompileOptions::new(SchedulerKind::Balanced)
                .with_locality()
                .with_unroll(8),
        ),
        (
            "balanced + LA + TrS + LU8",
            CompileOptions::new(SchedulerKind::Balanced)
                .with_locality()
                .with_unroll(8)
                .with_trace(),
        ),
    ] {
        let run = Experiment::builder()
            .program("tomcatv", program.clone())
            .compile_options(opts)
            .build()
            .expect("program supplied")
            .run()
            .expect("pipeline succeeds");
        println!(
            "{label:<28} {:>12} {:>14} {:>8.2}",
            run.metrics.cycles,
            run.metrics.load_interlock,
            run.metrics.cpi()
        );
        if opts.locality {
            println!(
                "{:<28} hits marked: {}, misses marked: {}, loops peeled: {}, unrolled: {}",
                "",
                run.compile.locality.hits_marked,
                run.compile.locality.misses_marked,
                run.compile.locality.peeled,
                run.compile.locality.unrolled
            );
        }
    }
    println!(
        "\nCompile-time hits keep the optimistic weight and donate their\n\
         issue slots to the loads that will miss — the paper's selective\n\
         balanced scheduling (tomcatv was its best case: 1.5x)."
    );
}
