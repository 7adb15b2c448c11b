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
//! Flags:
//!
//! * `--e2e` — also time the full pipeline (compile + verify +
//!   simulate) with the weight kernel against the same pipeline forced
//!   through the naive reference (`reference_weights`);
//! * `--json PATH` — also write the measurements as JSON (the committed
//!   `BENCH_pr2.json` is produced this way by `scripts/ci.sh`);
//! * `--check BASELINE` — after measuring, gate the per-case
//!   naive:kernel speedups against a recorded JSON (DESIGN.md,
//!   "Baseline gates"); whole-pipeline `e2e/` cases are recorded but
//!   exempt (the weight share of a full run varies with simulator
//!   load);
//! * `--check-ratio R` — the gate's floor (default `0.9`). That the
//!   kernel pays nothing for tracing is pinned structurally instead, by
//!   `crates/pipeline/tests/weights_untraced.rs` (no trace points).

use bsched_bench::{baseline, cli::BenchArgs, microbench::bench};
use bsched_core::{compute_weights, compute_weights_reference, SchedulerKind, WeightConfig};
use bsched_ir::{Dag, Inst, Op, Reg, RegClass, RegionId};
use bsched_pipeline::{CompileOptions, Experiment};

/// One region measured under both arms.
struct Case {
    name: String,
    insts: usize,
    loads: usize,
    naive_ns: u128,
    kernel_ns: u128,
    naive_min_ns: u128,
    kernel_min_ns: u128,
}

impl Case {
    fn speedup(&self) -> f64 {
        self.naive_ns as f64 / self.kernel_ns.max(1) as f64
    }

    /// Speedup from fastest observed times. Minimums are far less
    /// sensitive to scheduling noise than medians (interference only
    /// ever adds time), so `--check` prefers this ratio whenever the
    /// baseline recorded minimums too.
    fn speedup_min(&self) -> f64 {
        self.naive_min_ns as f64 / self.kernel_min_ns.max(1) as f64
    }
}

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

fn measure(name: &str, insts: &[Inst]) -> Case {
    let dag = Dag::new(insts);
    let loads = insts.iter().filter(|i| i.op.is_load()).count();
    let config = WeightConfig::new(SchedulerKind::Balanced);
    let naive = bench(&format!("weights/naive/{name}"), || {
        compute_weights_reference(insts, &dag, &config)
    });
    let kernel = bench(&format!("weights/kernel/{name}"), || {
        compute_weights(insts, &dag, &config)
    });
    let case = Case {
        name: name.to_string(),
        insts: insts.len(),
        loads,
        naive_ns: naive.median.as_nanos(),
        kernel_ns: kernel.median.as_nanos(),
        naive_min_ns: naive.min.as_nanos(),
        kernel_min_ns: kernel.min.as_nanos(),
    };
    println!(
        "  {:<44} speedup {:>8.1}x  ({} insts, {} loads)",
        case.name,
        case.speedup(),
        case.insts,
        case.loads
    );
    case
}

fn to_json(c: &Case) -> String {
    format!(
        "{{\"name\": \"{}\", \"insts\": {}, \"loads\": {}, \
         \"naive_ns\": {}, \"kernel_ns\": {}, \"speedup\": {:.2}, \
         \"naive_min_ns\": {}, \"kernel_min_ns\": {}, \"speedup_min\": {:.2}}}",
        c.name,
        c.insts,
        c.loads,
        c.naive_ns,
        c.kernel_ns,
        c.speedup(),
        c.naive_min_ns,
        c.kernel_min_ns,
        c.speedup_min()
    )
}

fn main() {
    let mut e2e = false;
    let flags = BenchArgs::parse(|flag, _| match flag {
        "--e2e" => {
            e2e = true;
            true
        }
        _ => false,
    });

    println!("weights (naive reference vs bitset kernel, balanced):");
    let mut cases = Vec::new();
    for n in [8u32, 32, 96] {
        let insts = synthetic_region(n);
        cases.push(measure(&format!("synth/{}", insts.len()), &insts));
    }
    for kernel in ["tomcatv", "su2cor"] {
        let insts = unroll8_region(kernel);
        cases.push(measure(
            &format!("unroll8/{kernel}/{}", insts.len()),
            &insts,
        ));
    }

    if e2e {
        // The whole scheduling pass (liveness + per-block weights +
        // list scheduling over every block of the compiled function),
        // with the weights forced through either arm.
        println!("end-to-end (whole scheduling pass, naive weights vs kernel):");
        for kernel in ["tomcatv", "su2cor"] {
            let compiled = Experiment::builder()
                .kernel(kernel)
                .compile_options(
                    CompileOptions::new(SchedulerKind::Balanced)
                        .with_unroll(8)
                        .with_trace(),
                )
                .build()
                .expect("kernel exists")
                .compile()
                .expect("compiles");
            let func = compiled.program.main();
            let insts = func.inst_count();
            let run = |reference: bool| {
                let config = WeightConfig::new(SchedulerKind::Balanced).with_reference(reference);
                bench(
                    &format!(
                        "e2e/{}/{kernel}_bs_lu8t",
                        if reference { "naive" } else { "kernel" }
                    ),
                    || {
                        let mut f = func.clone();
                        bsched_core::schedule_function(&mut f, &config);
                        f
                    },
                )
            };
            let naive = run(true);
            let fast = run(false);
            let case = Case {
                name: format!("e2e/{kernel}_bs_lu8t"),
                insts,
                loads: 0,
                naive_ns: naive.median.as_nanos(),
                kernel_ns: fast.median.as_nanos(),
                naive_min_ns: naive.min.as_nanos(),
                kernel_min_ns: fast.min.as_nanos(),
            };
            println!("  {:<44} speedup {:>8.2}x", case.name, case.speedup());
            cases.push(case);
        }
    }

    if let Some(path) = &flags.json {
        baseline::write(
            path,
            "weights",
            &cases.iter().map(to_json).collect::<Vec<_>>(),
        );
    }
    if let Some(path) = &flags.check {
        baseline::check(path, "weights", &["speedup"], |name, base| {
            if name.starts_with("e2e/") {
                return None; // recorded, not gated
            }
            let c = cases.iter().find(|c| c.name == name)?;
            Some(baseline::speedup_floor(
                base,
                c.speedup(),
                c.speedup_min(),
                flags.check_ratio,
            ))
        });
    }
}
