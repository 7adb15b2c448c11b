//! Quickstart: build a small kernel, compile it under traditional and
//! balanced scheduling, and compare the simulated outcomes.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use balanced_scheduling::workloads::lang::ast::{Expr, Index};
use balanced_scheduling::workloads::lang::{ArrayInit, Kernel};
use balanced_scheduling::{CompileOptions, Experiment, SchedulerKind};

fn main() {
    // A streaming kernel: c[i] = 3·a[i] + b[i] over 16 KB arrays, so most
    // loads miss the 8 KB L1 and the schedulers face real latency
    // variance.
    let n = 2048;
    let mut k = Kernel::new("quickstart");
    let a = k.array("a", n, ArrayInit::Random(1));
    let b = k.array("b", n, ArrayInit::Random(2));
    let c = k.array("c", n, ArrayInit::Zero);
    let i = k.int_var("i");
    let body = vec![k.store(
        c,
        Index::of(i),
        Expr::load(a, Index::of(i)) * Expr::Float(3.0) + Expr::load(b, Index::of(i)),
    )];
    k.push(k.for_loop(i, Expr::Int(0), Expr::Int(n as i64), body));
    let program = k.lower();

    println!("kernel: c[i] = 3*a[i] + b[i], n = {n}\n");
    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>8}",
        "configuration", "cycles", "load stalls", "fixed stalls", "CPI"
    );
    let mut baseline = None;
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
            .program("quickstart", program.clone())
            .compile_options(opts)
            .build()
            .expect("program supplied")
            .run()
            .expect("pipeline succeeds");
        assert!(
            run.checksum_ok,
            "compiled code must compute the same result"
        );
        let m = &run.metrics;
        println!(
            "{label:<22} {:>10} {:>12} {:>12} {:>8.2}",
            m.cycles,
            m.load_interlock,
            m.fixed_interlock,
            m.cpi()
        );
        let base = *baseline.get_or_insert(m.cycles);
        if base != m.cycles {
            println!(
                "{:<22} speedup over traditional: {:.2}x",
                "",
                base as f64 / m.cycles as f64
            );
        }
    }
}
