//! Compile and simulate a kernel written in the textual DSL.
//!
//! ```sh
//! cargo run --release --example dsl_kernel -- examples/kernels/stencil.bsk
//! ```

use balanced_scheduling::workloads::parse_kernel;
use balanced_scheduling::{CompileOptions, Experiment, SchedulerKind};

fn main() {
    let path = std::env::args().nth(1);
    let source = match &path {
        Some(p) => std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            std::process::exit(1);
        }),
        None => include_str!("kernels/stencil.bsk").to_string(),
    };
    let kernel = parse_kernel(&source).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let program = kernel.lower();
    println!(
        "parsed `{}`: {} regions, {} static instructions\n",
        kernel.name(),
        program.regions().len(),
        program.main().inst_count()
    );

    println!(
        "{:<22} {:>10} {:>12} {:>8}",
        "configuration", "cycles", "load stalls", "CPI"
    );
    for (label, opts) in [
        (
            "traditional",
            CompileOptions::new(SchedulerKind::Traditional),
        ),
        ("balanced", CompileOptions::new(SchedulerKind::Balanced)),
        (
            "balanced + LU4",
            CompileOptions::new(SchedulerKind::Balanced).with_unroll(4),
        ),
        (
            "balanced + LU4 + LA",
            CompileOptions::new(SchedulerKind::Balanced)
                .with_unroll(4)
                .with_locality(),
        ),
    ] {
        let run = Experiment::builder()
            .program(kernel.name(), program.clone())
            .compile_options(opts)
            .build()
            .expect("program supplied")
            .run()
            .expect("pipeline succeeds");
        assert!(run.checksum_ok);
        println!(
            "{label:<22} {:>10} {:>12} {:>8.2}",
            run.metrics.cycles,
            run.metrics.load_interlock,
            run.metrics.cpi()
        );
    }
}
