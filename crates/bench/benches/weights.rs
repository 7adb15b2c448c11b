//! Cost of the balanced load-weight computation as region size grows,
//! with a **naive** arm (the retained per-contributor reference walk,
//! [`compute_weights_reference`]) against the **kernel** arm (the bitset
//! DAG-analysis fast path, [`compute_weights`]) on the same regions.
//!
//! Regions come from two sources: synthetic wide load/FP regions, and
//! the largest scheduled blocks of real suite kernels compiled at
//! unroll factor 8 — the shapes where the paper's balanced weights
//! dominate compile time.
//!
//! The bench takes no flags of its own and gates nothing: the kernel's
//! work is pinned by exact counts instead
//! (`crates/pipeline/tests/weights_untraced.rs`), where a wall-clock
//! ratio could not tell a slower kernel from host noise.

use bsched_bench::{cli, microbench::bench};
use bsched_core::{compute_weights, compute_weights_reference, SchedulerKind, WeightConfig};
use bsched_ir::{Dag, Inst, Op, Reg, RegClass, RegionId};
use bsched_pipeline::{CompileOptions, Experiment};

fn synthetic_region(n_loads: u32) -> Vec<Inst> {
    let r = |n| Reg::virt(RegClass::Int, n);
    let f = |n| Reg::virt(RegClass::Float, n);
    let mut insts = Vec::new();
    for k in 0..n_loads {
        insts.push(Inst::load(f(k * 2), r(k % 8), i64::from(k) * 8).with_region(RegionId::new(0)));
        insts.push(Inst::op(Op::FAdd, f(k * 2 + 1), &[f(k * 2), f(k * 2)]));
    }
    insts
}

/// The largest scheduled block of `kernel` compiled at unroll factor 8.
fn unroll8_region(kernel: &str) -> Vec<Inst> {
    let compiled = Experiment::builder()
        .kernel(kernel)
        .compile_options(CompileOptions::new(SchedulerKind::Balanced).with_unroll(8))
        .build()
        .expect("kernel exists")
        .compile()
        .expect("compiles");
    compiled
        .program
        .main()
        .blocks()
        .iter()
        .max_by_key(|b| b.len())
        .map(|b| b.insts.clone())
        .unwrap_or_default()
}

fn measure(name: &str, insts: &[Inst]) {
    let dag = Dag::new(insts);
    let loads = insts.iter().filter(|i| i.op.is_load()).count();
    let config = WeightConfig::new(SchedulerKind::Balanced);
    let naive = bench(&format!("weights/naive/{name}"), || {
        compute_weights_reference(insts, &dag, &config)
    });
    let kernel = bench(&format!("weights/kernel/{name}"), || {
        compute_weights(insts, &dag, &config)
    });
    println!(
        "  {:<44} speedup {:>8.1}x  ({} insts, {loads} loads)",
        name,
        naive.median.as_nanos() as f64 / kernel.median.as_nanos().max(1) as f64,
        insts.len(),
    );
}

fn main() {
    cli::bench_args(|_, _| false);

    println!("weights (naive reference vs bitset kernel, balanced):");
    for n in [8u32, 32, 96] {
        let insts = synthetic_region(n);
        measure(&format!("synth/{}", insts.len()), &insts);
    }
    for kernel in ["tomcatv", "su2cor"] {
        let insts = unroll8_region(kernel);
        measure(&format!("unroll8/{kernel}/{}", insts.len()), &insts);
    }
}
