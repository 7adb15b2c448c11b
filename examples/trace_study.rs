//! Trace-scheduling study: a branchy kernel where trace scheduling picks
//! the hot path, with the cost of speculation and compensation visible in
//! the dynamic instruction count (paper §5.2).
//!
//! ```sh
//! cargo run --release --example trace_study
//! ```

use balanced_scheduling::workloads::kernel_by_name;
use balanced_scheduling::{CompileOptions, Experiment, SchedulerKind};

fn main() {
    for name in ["DYFESM", "doduc"] {
        let spec = kernel_by_name(name).expect("kernel exists");
        let program = spec.program();
        println!("== {} — {}", spec.name, spec.shape);
        println!(
            "{:<18} {:>12} {:>12} {:>10} {:>10}",
            "configuration", "cycles", "dyn insts", "branches", "comp code"
        );
        for (label, opts) in [
            (
                "BS + LU4",
                CompileOptions::new(SchedulerKind::Balanced).with_unroll(4),
            ),
            (
                "BS + TrS + LU4",
                CompileOptions::new(SchedulerKind::Balanced)
                    .with_unroll(4)
                    .with_trace(),
            ),
            (
                "TS + TrS + LU4",
                CompileOptions::new(SchedulerKind::Traditional)
                    .with_unroll(4)
                    .with_trace(),
            ),
        ] {
            let run = Experiment::builder()
                .program(spec.name, program.clone())
                .compile_options(opts)
                .build()
                .expect("program supplied")
                .run()
                .expect("pipeline succeeds");
            println!(
                "{label:<18} {:>12} {:>12} {:>10} {:>10}",
                run.metrics.cycles,
                run.metrics.insts.total(),
                run.metrics.insts.branches,
                run.compile.trace.compensation_insts,
            );
        }
        println!();
    }
    println!(
        "DYFESM has no dominant path (50/50 branch with stores in both\n\
         arms), so trace scheduling pays speculation/compensation without\n\
         a payoff — the paper saw its dynamic count more than double.\n\
         doduc's conditionals similarly limit the trace picker."
    );
}
