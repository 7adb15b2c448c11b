//! Randomized semantics testing: random kernels run through every
//! optimization pipeline must preserve the observable memory image.
//!
//! The pipeline itself cross-checks each compilation against the
//! reference interpreter (`PipelineError::ChecksumMismatch`), so the
//! property here is simply "compilation succeeds" over a randomized
//! kernel space that exercises loops, strides, nested conditionals,
//! selects, reductions and 2-D accesses. Plans come from the
//! workspace's seeded [`Prng`] so every run covers the same corpus.

use balanced_scheduling::workloads::lang::ast::{CmpOp, Expr, Index, Stmt};
use balanced_scheduling::workloads::lang::{ArrayInit, Kernel};
use balanced_scheduling::{CompileOptions, Experiment, SchedulerKind};
use bsched_util::Prng;

/// A compact, data-first description of a random kernel.
#[derive(Debug, Clone)]
struct KernelPlan {
    array_elems: u64,
    trip: i64,
    step: i64,
    stmts: Vec<StmtPlan>,
}

#[derive(Debug, Clone)]
enum StmtPlan {
    /// out[i + off] = expr
    Store { off: i64, expr: ExprPlan },
    /// acc = acc + expr
    Accumulate { expr: ExprPlan },
    /// if (in[i] < 0.5) { out[i] = e1 } else { out[i] = e2 }
    BranchStores { e1: ExprPlan, e2: ExprPlan },
    /// if (in[i] < 0.5) { acc = acc + e } else {} (predicable)
    BranchAcc { e: ExprPlan },
}

#[derive(Debug, Clone)]
enum ExprPlan {
    Const(i8),
    LoadIn { off: i64 },
    LoadStrided { stride: i64 },
    Mul(Box<ExprPlan>, Box<ExprPlan>),
    Add(Box<ExprPlan>, Box<ExprPlan>),
    Select(Box<ExprPlan>, Box<ExprPlan>),
    AccRef,
}

fn gen_expr(rng: &mut Prng, depth: usize) -> ExprPlan {
    // Half the draws recurse while depth remains, mirroring proptest's
    // `prop_recursive(3, ...)` shape.
    if depth > 0 && rng.coin() {
        let a = Box::new(gen_expr(rng, depth - 1));
        let b = Box::new(gen_expr(rng, depth - 1));
        match rng.index(3) {
            0 => ExprPlan::Mul(a, b),
            1 => ExprPlan::Add(a, b),
            _ => ExprPlan::Select(a, b),
        }
    } else {
        match rng.index(4) {
            0 => ExprPlan::Const(rng.next_u32() as i8),
            1 => ExprPlan::LoadIn {
                off: rng.range_i64(0, 4),
            },
            2 => ExprPlan::LoadStrided {
                stride: rng.range_i64(1, 3),
            },
            _ => ExprPlan::AccRef,
        }
    }
}

fn gen_stmt(rng: &mut Prng) -> StmtPlan {
    match rng.index(4) {
        0 => StmtPlan::Store {
            off: rng.range_i64(0, 4),
            expr: gen_expr(rng, 3),
        },
        1 => StmtPlan::Accumulate {
            expr: gen_expr(rng, 3),
        },
        2 => StmtPlan::BranchStores {
            e1: gen_expr(rng, 3),
            e2: gen_expr(rng, 3),
        },
        _ => StmtPlan::BranchAcc {
            e: gen_expr(rng, 3),
        },
    }
}

fn gen_plan(rng: &mut Prng) -> KernelPlan {
    KernelPlan {
        array_elems: rng.range_u64(16, 64),
        trip: rng.range_i64(0, 24),
        step: rng.range_i64(1, 4),
        stmts: (0..1 + rng.index(3)).map(|_| gen_stmt(rng)).collect(),
    }
}

fn build(plan: &KernelPlan) -> bsched_ir::Program {
    let mut k = Kernel::new("prop");
    // Arrays sized so indices (i*stride + off) stay in range.
    let span = plan.array_elems + 8 + plan.array_elems * 2;
    let input = k.array("in", span, ArrayInit::Random(42));
    let out = k.array("out", span, ArrayInit::Zero);
    let accs = k.array("accs", 8, ArrayInit::Zero);
    let i = k.int_var("i");
    let acc = k.float_var("acc");

    fn expr(
        plan: &ExprPlan,
        input: balanced_scheduling::workloads::lang::ast::ArrId,
        i: balanced_scheduling::workloads::lang::ast::VarId,
        acc: balanced_scheduling::workloads::lang::ast::VarId,
    ) -> Expr {
        match plan {
            ExprPlan::Const(c) => Expr::Float(f64::from(*c) / 16.0),
            ExprPlan::LoadIn { off } => Expr::load(input, Index::of_plus(i, *off)),
            ExprPlan::LoadStrided { stride } => Expr::load(
                input,
                Index::Affine {
                    terms: vec![(i, *stride)],
                    offset: 0,
                },
            ),
            ExprPlan::Mul(a, b) => expr(a, input, i, acc) * expr(b, input, i, acc),
            ExprPlan::Add(a, b) => expr(a, input, i, acc) + expr(b, input, i, acc),
            ExprPlan::Select(a, b) => Expr::select(
                Expr::cmp(CmpOp::Lt, expr(a, input, i, acc), Expr::Float(0.25)),
                expr(a, input, i, acc),
                expr(b, input, i, acc),
            ),
            ExprPlan::AccRef => Expr::Var(acc),
        }
    }

    k.push(k.assign(acc, Expr::Float(0.0)));
    let mut body = Vec::new();
    for s in &plan.stmts {
        match s {
            StmtPlan::Store { off, expr: e } => {
                body.push(k.store(out, Index::of_plus(i, *off), expr(e, input, i, acc)));
            }
            StmtPlan::Accumulate { expr: e } => {
                body.push(k.assign(acc, Expr::Var(acc) + expr(e, input, i, acc)));
            }
            StmtPlan::BranchStores { e1, e2 } => body.push(Stmt::If {
                cond: Expr::cmp(CmpOp::Lt, Expr::load(input, Index::of(i)), Expr::Float(0.5)),
                then_: vec![k.store(out, Index::of(i), expr(e1, input, i, acc))],
                else_: vec![k.store(out, Index::of_plus(i, 1), expr(e2, input, i, acc))],
            }),
            StmtPlan::BranchAcc { e } => body.push(Stmt::If {
                cond: Expr::cmp(CmpOp::Lt, Expr::load(input, Index::of(i)), Expr::Float(0.5)),
                then_: vec![k.assign(acc, Expr::Var(acc) + expr(e, input, i, acc))],
                else_: vec![],
            }),
        }
    }
    k.push(k.for_loop_step(i, Expr::Int(0), Expr::Int(plan.trip), plan.step, body));
    k.push(k.store(accs, Index::constant(0), Expr::Var(acc)));
    k.lower()
}

#[test]
fn every_pipeline_preserves_semantics() {
    let mut rng = Prng::new(0x5E3A_0001);
    for case in 0..24 {
        let plan = gen_plan(&mut rng);
        let program = build(&plan);
        assert!(
            bsched_ir::verify_program(&program).is_ok(),
            "case {case}: {plan:?}"
        );
        for opts in [
            CompileOptions::new(SchedulerKind::Traditional),
            CompileOptions::new(SchedulerKind::Balanced),
            CompileOptions::new(SchedulerKind::Balanced).with_unroll(4),
            CompileOptions::new(SchedulerKind::Balanced)
                .with_unroll(8)
                .with_trace(),
            CompileOptions::new(SchedulerKind::Balanced)
                .with_unroll(4)
                .with_locality(),
        ] {
            // Compilation internally interprets the result and fails on
            // any observable-memory divergence.
            let r = Experiment::builder()
                .program("prop", program.clone())
                .compile_options(opts)
                .build()
                .expect("program supplied")
                .compile();
            assert!(
                r.is_ok(),
                "case {case}: {}: {:?}",
                opts.label(),
                r.err().map(|e| e.to_string())
            );
        }
    }
}
