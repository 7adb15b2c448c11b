//! The paper's headline *shape* claims, asserted over the full workload.
//!
//! These run the 17-kernel grid, which is slow in debug builds, so they
//! are `#[ignore]`d by default; run them with
//!
//! ```sh
//! cargo test --release --test paper_shape -- --ignored
//! ```

use balanced_scheduling::pipeline::{ConfigKind, Experiment, RunResult, SchedulerKind};
use balanced_scheduling::workloads::all_kernels;
use bsched_ir::Program;

fn run_cell(name: &str, program: &Program, kind: ConfigKind, sched: SchedulerKind) -> RunResult {
    Experiment::builder()
        .program(name, program.clone())
        .compile_options(kind.options(sched))
        .build()
        .expect("program supplied")
        .run()
        .unwrap()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn grid_speedups(kind: ConfigKind) -> Vec<f64> {
    all_kernels()
        .iter()
        .map(|spec| {
            let p = spec.program();
            let bs = run_cell(spec.name, &p, kind, SchedulerKind::Balanced);
            let ts = run_cell(spec.name, &p, kind, SchedulerKind::Traditional);
            bs.metrics.speedup_over(&ts.metrics)
        })
        .collect()
}

#[test]
#[ignore = "runs the full grid; use --release -- --ignored"]
fn balanced_beats_traditional_on_average_at_every_level() {
    for kind in [
        ConfigKind::Base,
        ConfigKind::Lu(4),
        ConfigKind::Lu(8),
        ConfigKind::TrsLu(4),
        ConfigKind::TrsLu(8),
    ] {
        let s = mean(&grid_speedups(kind));
        assert!(
            s > 1.0,
            "{}: average BS:TS speedup {s:.3} must exceed 1",
            kind.label()
        );
    }
}

#[test]
#[ignore = "runs the full grid; use --release -- --ignored"]
fn ilp_optimizations_extend_the_advantage() {
    // The paper's central claim: the BS:TS gap at the most optimized
    // configurations exceeds the unoptimized gap.
    let base = mean(&grid_speedups(ConfigKind::Base));
    let best = [ConfigKind::Lu(8), ConfigKind::TrsLu(8)]
        .into_iter()
        .map(|k| mean(&grid_speedups(k)))
        .fold(f64::MIN, f64::max);
    assert!(
        best > base,
        "optimized advantage {best:.3} must exceed unoptimized {base:.3}"
    );
}

#[test]
#[ignore = "runs the full grid; use --release -- --ignored"]
fn balanced_always_has_fewer_load_interlock_cycles_on_average() {
    for kind in [ConfigKind::Base, ConfigKind::Lu(4), ConfigKind::TrsLu(8)] {
        let mut bs_frac = Vec::new();
        let mut ts_frac = Vec::new();
        for spec in all_kernels() {
            let p = spec.program();
            let bs = run_cell(spec.name, &p, kind, SchedulerKind::Balanced);
            let ts = run_cell(spec.name, &p, kind, SchedulerKind::Traditional);
            bs_frac.push(bs.metrics.load_interlock_fraction());
            ts_frac.push(ts.metrics.load_interlock_fraction());
        }
        assert!(
            mean(&bs_frac) < mean(&ts_frac) * 0.75,
            "{}: BS load-interlock fraction {:.3} vs TS {:.3}",
            kind.label(),
            mean(&bs_frac),
            mean(&ts_frac)
        );
    }
}
