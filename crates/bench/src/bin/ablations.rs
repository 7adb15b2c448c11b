//! Ablations over the design choices DESIGN.md calls out. Each ablation
//! prints the simulated-cycle outcome (the quantity of interest). Takes
//! no flags.

use bsched_pipeline::{CompileOptions, Experiment, SchedulerKind};
use bsched_sim::SimConfig;

fn cycles(name: &str, opts: &CompileOptions) -> u64 {
    Experiment::builder()
        .kernel(name)
        .compile_options(*opts)
        .build()
        .expect("kernel exists")
        .run()
        .expect("pipeline succeeds")
        .metrics
        .cycles
}

fn main() {
    bsched_bench::cli::no_flags();

    // 1. Weight cap (paper: 50 = max memory latency).
    println!("weight_cap ablation (hydro2d, balanced):");
    for cap in [2u32, 4, 10, 50] {
        let n = cycles(
            "hydro2d",
            &CompileOptions::new(SchedulerKind::Balanced).with_weight_cap(cap),
        );
        println!("  cap {cap:3}: {n} cycles");
    }

    // 2. MSHR sweep: with one MSHR the cache blocks and balanced
    // scheduling's advantage should collapse.
    println!("mshr sweep (dnasa7):");
    for mshrs in [1usize, 2, 6] {
        let sim = SimConfig::default().with_mshrs(mshrs);
        let bs = cycles(
            "dnasa7",
            &CompileOptions::new(SchedulerKind::Balanced).with_sim(sim),
        );
        let ts = cycles(
            "dnasa7",
            &CompileOptions::new(SchedulerKind::Traditional).with_sim(sim),
        );
        println!(
            "  {mshrs} MSHR(s): BS {bs}, TS {ts}, BS:TS {:.3}",
            ts as f64 / bs as f64
        );
    }

    // 3. Predication on/off: a single-conditional loop unrolls only once
    // the branch is converted to cmov (paper §4.2 footnote 2).
    println!("predication ablation (conditional reduction, balanced + LU4):");
    let prog = {
        use bsched_workloads::lang::ast::{CmpOp, Expr, Index, Stmt};
        use bsched_workloads::lang::{ArrayInit, Kernel};
        let mut k = Kernel::new("cond");
        let a = k.array("a", 2048, ArrayInit::Random(7));
        let out = k.array("out", 8, ArrayInit::Zero);
        let i = k.int_var("i");
        let s = k.float_var("s");
        k.push(k.assign(s, Expr::Float(0.0)));
        let body = vec![Stmt::If {
            cond: Expr::cmp(CmpOp::Lt, Expr::load(a, Index::of(i)), Expr::Float(0.5)),
            then_: vec![k.assign(s, Expr::Var(s) + Expr::load(a, Index::of(i)))],
            else_: vec![k.assign(s, Expr::Var(s) - Expr::load(a, Index::of(i)))],
        }];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(2048), body));
        k.push(k.store(out, Index::constant(0), Expr::Var(s)));
        k.lower()
    };
    let run_cond = |opts: CompileOptions| {
        Experiment::builder()
            .program("cond", prog.clone())
            .compile_options(opts)
            .build()
            .expect("program supplied")
            .run()
            .expect("pipeline succeeds")
    };
    let with_pred = run_cond(CompileOptions::new(SchedulerKind::Balanced).with_unroll(4));
    let without = run_cond(
        CompileOptions::new(SchedulerKind::Balanced)
            .with_unroll(4)
            .without_predication(),
    );
    println!(
        "  predicated: {} cycles ({} loops unrolled), unpredicated: {} cycles ({} loops unrolled)",
        with_pred.metrics.cycles,
        with_pred.compile.unrolled_loops,
        without.metrics.cycles,
        without.compile.unrolled_loops
    );

    // 4. Tie-break heuristic order (paper §4.2's three heuristics).
    println!("tie-break heuristic ablation (dnasa7, balanced):");
    for (label, tb) in [
        (
            "pressure-first (paper)",
            bsched_pipeline::TieBreak::Standard,
        ),
        ("exposed-first", bsched_pipeline::TieBreak::ExposedFirst),
        (
            "program order only",
            bsched_pipeline::TieBreak::ProgramOrder,
        ),
    ] {
        let n = cycles(
            "dnasa7",
            &CompileOptions::new(SchedulerKind::Balanced)
                .with_unroll(4)
                .with_tie_break(tb),
        );
        println!("  {label}: {n} cycles");
    }

    // 5. Unrolled-body budget (paper: 64 at factor 4).
    println!("unroll budget ablation (tomcatv, balanced + LU4):");
    for budget in [32usize, 64, 128, 256] {
        let n = cycles(
            "tomcatv",
            &CompileOptions::new(SchedulerKind::Balanced)
                .with_unroll(4)
                .with_unroll_budget(budget),
        );
        println!("  budget {budget:3}: {n} cycles");
    }

    // 6. Selective scheduling under locality analysis: transformations
    // with and without the hit-aware weights.
    println!("selective scheduling ablation (tomcatv, balanced + LA):");
    let sel = cycles(
        "tomcatv",
        &CompileOptions::new(SchedulerKind::Balanced).with_locality(),
    );
    let nosel = cycles(
        "tomcatv",
        &CompileOptions::new(SchedulerKind::Balanced)
            .with_locality()
            .without_selective(),
    );
    println!("  selective: {sel} cycles, plain balanced on transformed code: {nosel} cycles");

    // 7. Write-buffer depth (infinite = the paper's store accounting).
    println!("write-buffer ablation (swm256, balanced + LU4):");
    {
        let inf = cycles(
            "swm256",
            &CompileOptions::new(SchedulerKind::Balanced).with_unroll(4),
        );
        println!("  infinite: {inf} cycles");
        for n in [1u32, 2, 6] {
            let mut sim = SimConfig::default();
            sim.mem = sim.mem.with_write_buffer(n);
            let c = cycles(
                "swm256",
                &CompileOptions::new(SchedulerKind::Balanced)
                    .with_unroll(4)
                    .with_sim(sim),
            );
            println!("  {n} entries: {c} cycles");
        }
    }

    // 8. I-fetch modeling (the Kerns–Eggers perfect-I-cache assumption).
    println!("ifetch ablation (ARC2D, balanced):");
    let on = cycles("ARC2D", &CompileOptions::new(SchedulerKind::Balanced));
    let off = cycles(
        "ARC2D",
        &CompileOptions::new(SchedulerKind::Balanced)
            .with_sim(SimConfig::default().with_ifetch(false)),
    );
    println!("  modeled: {on}, perfect I-cache: {off}");
}
