//! Engine-equivalence suite: the block-compiled engine must reproduce
//! the interpreting engine **bit for bit** — metrics, checksum, and
//! per-load-site trace attribution — across hand-built programs,
//! lowered workload kernels, and the whole machine-configuration space.

use bsched_ir::{BrCond, ExecError, FuncBuilder, Op, Program};
use bsched_sim::{SimConfig, SimEngine, SimResult, Simulator};

/// A simulator for an ad-hoc machine description.
fn sim<'p>(p: &'p bsched_ir::Program, config: SimConfig) -> Simulator<'p> {
    Simulator::for_machine(p, &bsched_sim::MachineSpec::custom(config))
}
use bsched_util::Prng;
use bsched_workloads::lang::ast::{Expr, Index};
use bsched_workloads::lang::{ArrayInit, Kernel};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The trace recorder is process-global: a capture would also record
/// the `sim.run` events of any test running beside it, so every test in
/// this file serializes here.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`TRACE_LOCK`], recovering it if a failed test poisoned it.
fn serial() -> MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn run_engine(p: &Program, cfg: SimConfig, engine: SimEngine) -> Result<SimResult, ExecError> {
    sim(p, cfg).with_engine(engine).run()
}

fn assert_engines_agree(p: &Program, cfg: SimConfig, what: &str) {
    let interp = run_engine(p, cfg, SimEngine::Interpret).unwrap();
    let block = run_engine(p, cfg, SimEngine::BlockCompiled).unwrap();
    assert_eq!(interp.metrics, block.metrics, "{what}: metrics diverged");
    assert_eq!(interp.checksum, block.checksum, "{what}: checksum diverged");
}

/// The machine-configuration axes the grid exercises, plus corners.
fn config_space() -> Vec<(&'static str, SimConfig)> {
    use bsched_mem::{MshrPolicy, PrefetchKind};
    use bsched_sim::PredictorKind;
    let base = SimConfig::default();
    vec![
        ("default", base),
        ("no-ifetch", base.with_ifetch(false)),
        ("blocking", base.with_mshrs(1)),
        ("width2", base.with_issue(2, 1)),
        ("width4", base.with_issue(4, 2)),
        ("width4-ports4", base.with_ifetch(false).with_issue(4, 4)),
        ("simple-1993", base.simple_model_1993()),
        ("gshare", base.with_predictor(PredictorKind::Gshare)),
        ("tage", base.with_predictor(PredictorKind::TageLite)),
        ("nextline-pf", base.with_prefetch(PrefetchKind::NextLine)),
        ("stride-pf", base.with_prefetch(PrefetchKind::Stride)),
        ("nomerge-mshr", base.with_mshr_policy(MshrPolicy::NoMerge)),
        ("blocking-mshr", base.with_mshr_policy(MshrPolicy::Blocking)),
    ]
}

/// Every registered machine must also be engine-bit-identical.
#[test]
fn registered_machines_are_engine_identical() {
    let _serial = serial();
    let p = loop_program();
    for info in bsched_sim::MachineSpec::registry() {
        let m = bsched_sim::MachineSpec::named(info.name).unwrap();
        assert_engines_agree(&p, m.config(), info.name);
    }
}

/// load; gap of independent fmuls; dependent fadd; stores.
fn load_use_program(gap_ops: usize) -> Program {
    let mut p = Program::new("lu");
    let r = p.add_region("a", 4096);
    let mut b = FuncBuilder::new("main");
    let base = b.load_region_addr(r);
    let x = b.load_f(base, 0).with_region(r).emit(&mut b);
    let mut acc = b.fconst(1.0);
    for _ in 0..gap_ops {
        acc = b.binop(Op::FMul, acc, acc);
    }
    let y = b.binop(Op::FAdd, x, x);
    b.store(y, base, 8).with_region(r).emit(&mut b);
    b.store(acc, base, 16).with_region(r).emit(&mut b);
    b.ret();
    p.set_main(b.finish());
    p
}

/// Eight back-to-back cold-miss loads feeding a reduction.
fn many_miss_program() -> Program {
    let mut p = Program::new("8m");
    let r = p.add_region("a", 4096);
    let mut b = FuncBuilder::new("main");
    let base = b.load_region_addr(r);
    let mut acc = b.fconst(0.0);
    let loads: Vec<_> = (0..8)
        .map(|k| b.load_f(base, k * 64).with_region(r).emit(&mut b))
        .collect();
    for x in loads {
        acc = b.binop(Op::FAdd, acc, x);
    }
    b.store(acc, base, 8).with_region(r).emit(&mut b);
    b.ret();
    p.set_main(b.finish());
    p
}

/// for i in 0..50 { sum += i } — loops, branch prediction, re-entry.
fn loop_program() -> Program {
    let mut p = Program::new("loop");
    let out = p.add_region("out", 8);
    let mut b = FuncBuilder::new("main");
    let header = b.add_block();
    let body = b.add_block();
    let exit = b.add_block();
    let i = b.iconst(0);
    let sum = b.iconst(0);
    let n = b.iconst(50);
    let base = b.load_region_addr(out);
    b.jmp(header);
    b.switch_to(header);
    let c = b.binop(Op::CmpLt, i, n);
    b.br(c, BrCond::Zero, exit, body);
    b.switch_to(body);
    b.push(bsched_ir::Inst::op(Op::Add, sum, &[sum, i]));
    b.push(bsched_ir::Inst::op_imm(Op::Add, i, i, 1));
    b.jmp(header);
    b.switch_to(exit);
    b.store(sum, base, 0).with_region(out).emit(&mut b);
    b.ret();
    p.set_main(b.finish());
    p
}

/// An fdiv chain — fixed-latency interlock attribution.
fn fdiv_program() -> Program {
    let mut p = Program::new("div");
    let r = p.add_region("a", 64);
    let mut b = FuncBuilder::new("main");
    let base = b.load_region_addr(r);
    let x = b.fconst(10.0);
    let y = b.fconst(4.0);
    let q1 = b.binop(Op::FDivD, x, y);
    let q2 = b.binop(Op::FDivD, q1, y);
    b.store(q2, base, 0).with_region(r).emit(&mut b);
    b.ret();
    p.set_main(b.finish());
    p
}

/// Independent integer chains — multi-issue grouping.
fn ilp_program() -> Program {
    let mut p = Program::new("ilp");
    let r = p.add_region("a", 512);
    let mut b = FuncBuilder::new("main");
    let base = b.load_region_addr(r);
    let mut accs = Vec::new();
    for k in 0..8 {
        let x = b.iconst(k);
        let y = b.binop_imm(Op::Add, x, 1);
        let z = b.binop_imm(Op::Add, y, 2);
        accs.push(z);
    }
    let mut total = accs[0];
    for &a in &accs[1..] {
        total = b.binop(Op::Add, total, a);
    }
    b.store(total, base, 0).with_region(r).emit(&mut b);
    b.ret();
    p.set_main(b.finish());
    p
}

/// Sixteen independent stores — memory-port limits + write traffic.
fn store_program() -> Program {
    let mut p = Program::new("stports");
    let r = p.add_region("a", 4096);
    let mut b = FuncBuilder::new("main");
    let base = b.load_region_addr(r);
    let v = b.fconst(1.0);
    for k in 0..16 {
        b.store(v, base, k * 8).with_region(r).emit(&mut b);
    }
    b.ret();
    p.set_main(b.finish());
    p
}

/// A lowered workload kernel: a[i] = a[i] * 1.25 + a[i+1].
fn stream(n: i64, seed: u64) -> Program {
    let mut k = Kernel::new("s");
    let a = k.array("a", n as u64 + 8, ArrayInit::Random(seed));
    let i = k.int_var("i");
    let body = vec![k.store(
        a,
        Index::of(i),
        Expr::load(a, Index::of(i)) * Expr::Float(1.25) + Expr::load(a, Index::of_plus(i, 1)),
    )];
    k.push(k.for_loop(i, Expr::Int(0), Expr::Int(n), body));
    k.lower()
}

#[test]
fn engines_agree_on_every_program_and_config() {
    let _serial = serial();
    let programs: Vec<(&str, Program)> = vec![
        ("load-use-0", load_use_program(0)),
        ("load-use-12", load_use_program(12)),
        ("many-miss", many_miss_program()),
        ("loop", loop_program()),
        ("fdiv", fdiv_program()),
        ("ilp", ilp_program()),
        ("stores", store_program()),
    ];
    for (name, p) in &programs {
        for (cfg_name, cfg) in config_space() {
            assert_engines_agree(p, cfg, &format!("{name} × {cfg_name}"));
        }
    }
}

#[test]
fn engines_agree_on_seeded_workload_kernels() {
    let _serial = serial();
    let mut rng = Prng::new(0xE9_0001);
    for case in 0..16 {
        let n = rng.range_i64(1, 96);
        let seed = rng.range_u64(0, 1000);
        let width = [1u32, 2, 4][rng.index(3)];
        let mshrs = [1usize, 6][rng.index(2)];
        let ifetch = rng.coin();
        let p = stream(n, seed);
        let cfg = SimConfig::default()
            .with_issue(width, (width / 2).max(1))
            .with_mshrs(mshrs)
            .with_ifetch(ifetch);
        assert_engines_agree(&p, cfg, &format!("stream case {case} (n {n}, seed {seed})"));
    }
}

#[test]
fn engines_agree_on_fuel_exhaustion() {
    let _serial = serial();
    let mut p = Program::new("spin");
    let mut b = FuncBuilder::new("main");
    let e = b.current_block();
    let _ = b.iconst(0);
    b.jmp(e);
    p.set_main(b.finish());
    let cfg = SimConfig {
        fuel: 10,
        ..Default::default()
    };
    for engine in SimEngine::ALL {
        assert!(
            matches!(
                run_engine(&p, cfg, engine),
                Err(ExecError::OutOfFuel { fuel: 10 })
            ),
            "{engine:?}: expected OutOfFuel {{ fuel: 10 }}"
        );
    }
}

/// Per-load-site trace attribution is part of the bit-identity
/// contract: the `sim.load_site` and `sim.run` event streams (labels
/// and payloads; timestamps excluded) must match across engines.
#[test]
fn trace_attribution_is_identical_across_engines() {
    let _serial = serial();
    let programs = [
        ("many-miss", many_miss_program()),
        ("loop", loop_program()),
        ("stream", stream(64, 7)),
    ];
    for (name, p) in &programs {
        for (cfg_name, cfg) in config_space() {
            let mut captures = Vec::new();
            for engine in SimEngine::ALL {
                let (result, events) =
                    bsched_trace::capture(|| run_engine(p, cfg, engine).unwrap());
                let normalized: Vec<_> = events
                    .iter()
                    .filter(|e| {
                        e.id == bsched_trace::points::SIM_LOAD_SITE
                            || e.id == bsched_trace::points::SIM_RUN
                    })
                    .map(|e| (e.id, e.label.clone(), e.args.clone()))
                    .collect();
                captures.push((result, normalized));
            }
            let (interp, block) = (&captures[0], &captures[1]);
            assert_eq!(
                interp.0.metrics, block.0.metrics,
                "{name} × {cfg_name}: traced metrics diverged"
            );
            assert_eq!(
                interp.1, block.1,
                "{name} × {cfg_name}: trace attribution diverged"
            );
        }
    }
}
