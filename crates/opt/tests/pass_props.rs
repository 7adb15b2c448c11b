//! Randomized property tests: every structural pass preserves program
//! semantics on generated canonical loops, alone and in combination.
//! Loop plans come from the workspace's seeded [`Prng`].

use bsched_ir::{Interp, Program};
use bsched_opt::{
    copy_propagate, dead_code_elim, local_cse, peel_first_iteration, predicate_function,
    trace_schedule, unroll_loop, EdgeProfile, TraceOptions, UnrollLimits,
};
use bsched_util::Prng;
use bsched_workloads::lang::ast::{CmpOp, Expr, Index, Stmt};
use bsched_workloads::lang::{ArrayInit, Kernel};

#[derive(Debug, Clone)]
struct LoopPlan {
    trip: i64,
    step: i64,
    off1: i64,
    off2: i64,
    scale: i64,
    with_if: bool,
    with_acc: bool,
}

fn gen_plan(rng: &mut Prng) -> LoopPlan {
    LoopPlan {
        trip: rng.range_i64(0, 20),
        step: rng.range_i64(1, 4),
        off1: rng.range_i64(0, 4),
        off2: rng.range_i64(0, 4),
        scale: rng.range_i64(1, 3),
        with_if: rng.coin(),
        with_acc: rng.coin(),
    }
}

fn build(plan: &LoopPlan) -> Program {
    let mut k = Kernel::new("prop");
    let a = k.array("a", 256, ArrayInit::Random(9));
    let out = k.array("out", 256, ArrayInit::Zero);
    let i = k.int_var("i");
    let s = k.float_var("s");
    k.push(k.assign(s, Expr::Float(0.5)));
    let mut body = vec![k.store(
        out,
        Index::of_plus(i, plan.off1),
        Expr::load(
            a,
            Index::Affine {
                terms: vec![(i, plan.scale)],
                offset: plan.off2,
            },
        ) * Expr::Float(1.5)
            + Expr::load(a, Index::of(i)),
    )];
    if plan.with_acc {
        body.push(k.assign(
            s,
            Expr::Var(s) + Expr::load(a, Index::of_plus(i, plan.off2)),
        ));
    }
    if plan.with_if {
        body.push(Stmt::If {
            cond: Expr::cmp(CmpOp::Lt, Expr::load(a, Index::of(i)), Expr::Float(0.5)),
            then_: vec![k.assign(s, Expr::Var(s) * Expr::Float(1.01))],
            else_: vec![k.assign(s, Expr::Var(s) + Expr::Float(0.25))],
        });
    }
    k.push(k.for_loop_step(i, Expr::Int(0), Expr::Int(plan.trip), plan.step, body));
    k.push(k.store(out, Index::constant(128), Expr::Var(s)));
    k.lower()
}

fn checksum(p: &Program) -> u64 {
    Interp::new(p).run().expect("program executes").checksum
}

#[test]
fn cse_and_cleanup_preserve_semantics() {
    let mut rng = Prng::new(0x0B7_0001);
    for case in 0..48 {
        let plan = gen_plan(&mut rng);
        let mut p = build(&plan);
        let want = checksum(&p);
        local_cse(p.main_mut());
        copy_propagate(p.main_mut());
        dead_code_elim(p.main_mut());
        assert!(
            bsched_ir::verify_program(&p).is_ok(),
            "case {case}: {plan:?}"
        );
        assert_eq!(checksum(&p), want, "case {case}: {plan:?}");
    }
}

#[test]
fn predication_preserves_semantics() {
    let mut rng = Prng::new(0x0B7_0002);
    for case in 0..48 {
        let plan = gen_plan(&mut rng);
        let mut p = build(&plan);
        let want = checksum(&p);
        predicate_function(p.main_mut());
        assert!(
            bsched_ir::verify_program(&p).is_ok(),
            "case {case}: {plan:?}"
        );
        assert_eq!(checksum(&p), want, "case {case}: {plan:?}");
    }
}

#[test]
fn unroll_preserves_semantics() {
    let mut rng = Prng::new(0x0B7_0003);
    for case in 0..48 {
        let plan = gen_plan(&mut rng);
        let factor = [2u32, 4, 8][rng.index(3)];
        let mut p = build(&plan);
        let want = checksum(&p);
        predicate_function(p.main_mut());
        local_cse(p.main_mut());
        copy_propagate(p.main_mut());
        dead_code_elim(p.main_mut());
        let _ = unroll_loop(p.main_mut(), 0, &UnrollLimits::for_factor(factor));
        assert!(
            bsched_ir::verify_program(&p).is_ok(),
            "case {case}: {plan:?} x{factor}"
        );
        assert_eq!(checksum(&p), want, "case {case}: {plan:?} x{factor}");
    }
}

#[test]
fn peel_preserves_semantics() {
    let mut rng = Prng::new(0x0B7_0004);
    for case in 0..48 {
        let plan = gen_plan(&mut rng);
        let mut p = build(&plan);
        let want = checksum(&p);
        predicate_function(p.main_mut());
        let _ = peel_first_iteration(p.main_mut(), 0);
        assert!(
            bsched_ir::verify_program(&p).is_ok(),
            "case {case}: {plan:?}"
        );
        assert_eq!(checksum(&p), want, "case {case}: {plan:?}");
    }
}

#[test]
fn trace_scheduling_preserves_semantics() {
    let mut rng = Prng::new(0x0B7_0005);
    for case in 0..48 {
        let plan = gen_plan(&mut rng);
        let mut p = build(&plan);
        let want = checksum(&p);
        let profile = EdgeProfile::collect(&p).expect("profile");
        trace_schedule(p.main_mut(), &profile, &TraceOptions::default());
        assert!(
            bsched_ir::verify_program(&p).is_ok(),
            "case {case}: {plan:?}"
        );
        assert_eq!(checksum(&p), want, "case {case}: {plan:?}");
    }
}

#[test]
fn full_stack_composition_preserves_semantics() {
    let mut rng = Prng::new(0x0B7_0006);
    for case in 0..48 {
        let plan = gen_plan(&mut rng);
        let mut p = build(&plan);
        let want = checksum(&p);
        predicate_function(p.main_mut());
        local_cse(p.main_mut());
        copy_propagate(p.main_mut());
        dead_code_elim(p.main_mut());
        let _ = unroll_loop(p.main_mut(), 0, &UnrollLimits::for_factor(4));
        local_cse(p.main_mut());
        copy_propagate(p.main_mut());
        dead_code_elim(p.main_mut());
        let profile = EdgeProfile::collect(&p).expect("profile");
        trace_schedule(p.main_mut(), &profile, &TraceOptions::default());
        dead_code_elim(p.main_mut());
        assert!(
            bsched_ir::verify_program(&p).is_ok(),
            "case {case}: {plan:?}"
        );
        assert_eq!(checksum(&p), want, "case {case}: {plan:?}");
    }
}
