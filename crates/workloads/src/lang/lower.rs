//! Lowering from the loop-language AST to the canonical counted-loop IR.
//!
//! Shape contract (consumed by `bsched-opt`'s unroller and peeler):
//!
//! ```text
//! preheader: ... counter = lo; bound = hi; jmp header
//! header:    t = cmplt counter, bound
//!            br.z t -> exit, fall -> first body block
//! body...:   (may contain ifs and nested loops)
//! latch:     counter = add counter, #step; jmp header
//! ```
//!
//! Every `for` also registers a [`bsched_ir::CountedLoop`] with correct
//! parent links.

use super::ast::{ArrId, BinOp, CmpOp, Expr, Index, ScalarTy, Stmt, VarId};
use super::{ArrayInit, Kernel};
use bsched_ir::{
    Bound, BrCond, CountedLoop, FuncBuilder, Inst, Op, Program, Reg, RegClass, Region, RegionId,
};
use bsched_util::Prng;

struct Lowerer<'k> {
    k: &'k Kernel,
    b: FuncBuilder,
    var_regs: Vec<Reg>,
    arr_base: Vec<Reg>,
    arr_region: Vec<RegionId>,
    loop_stack: Vec<usize>,
}

/// Lowers a kernel to a whole program. See the module docs for the shape
/// contract.
///
/// # Panics
///
/// Panics on AST type errors.
#[must_use]
pub fn lower_kernel(k: &Kernel) -> Program {
    let mut program = Program::new(k.name.clone());
    let mut arr_region = Vec::new();
    for a in &k.arrays {
        let values = gen_init(a.elems, &a.init);
        arr_region.push(program.push_region(Region::from_f64s(a.name.clone(), &values)));
    }

    let mut b = FuncBuilder::new("main");
    let var_regs: Vec<Reg> = k
        .scalars
        .iter()
        .map(|(_, ty)| {
            b.new_reg(match ty {
                ScalarTy::Int => RegClass::Int,
                ScalarTy::Float => RegClass::Float,
            })
        })
        .collect();
    let arr_base: Vec<Reg> = arr_region.iter().map(|&r| b.load_region_addr(r)).collect();

    let mut lw = Lowerer {
        k,
        b,
        var_regs,
        arr_base,
        arr_region,
        loop_stack: Vec::new(),
    };
    lw.stmts(&k.stmts);
    lw.b.ret();
    program.set_main(lw.b.finish());
    program
}

fn gen_init(elems: u64, init: &ArrayInit) -> Vec<f64> {
    let n = elems as usize;
    match init {
        ArrayInit::Zero => vec![0.0; n],
        ArrayInit::Ramp(start, step) => (0..n).map(|i| start + step * i as f64).collect(),
        ArrayInit::Random(seed) => {
            let mut rng = Prng::new(*seed);
            (0..n).map(|_| rng.next_f64() + f64::EPSILON).collect()
        }
        ArrayInit::Affine { mul, add } => {
            // Stepped by `mul mod elems`, so no product can overflow.
            let m = elems.max(1);
            let (step, mut q) = (mul % m, add % m);
            (0..n)
                .map(|_| {
                    let v = q as f64;
                    q += step;
                    if q >= elems {
                        q -= elems;
                    }
                    v
                })
                .collect()
        }
    }
}

impl Lowerer<'_> {
    fn ty(&self, e: &Expr) -> ScalarTy {
        match e {
            Expr::Int(_) => ScalarTy::Int,
            Expr::Float(_) => ScalarTy::Float,
            Expr::Var(v) => self.k.scalars[v.0].1,
            Expr::Load(..) => ScalarTy::Float,
            Expr::Bin(_, a, _) => self.ty(a),
            Expr::Cmp(..) => ScalarTy::Int,
            Expr::Select(_, a, _) => self.ty(a),
            Expr::IntToFloat(_) | Expr::Sqrt(_) | Expr::Neg(_) => ScalarTy::Float,
            Expr::FloatToInt(_) => ScalarTy::Int,
        }
    }

    fn stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::AssignVar { var, value } => {
                let dst = self.var_regs[var.0];
                self.expr_to(Some(dst), value);
            }
            Stmt::Store { arr, index, value } => {
                let v = self.expr_to(None, value);
                assert_eq!(v.class(), RegClass::Float, "stores write float elements");
                let (addr, disp) = self.address(*arr, index);
                let region = self.arr_region[arr.0];
                self.b
                    .store(v, addr, disp)
                    .with_region(region)
                    .emit(&mut self.b);
            }
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => self.lower_for(*var, lo, hi, *step, body),
            Stmt::If { cond, then_, else_ } => self.lower_if(cond, then_, else_),
        }
    }

    fn lower_for(&mut self, var: VarId, lo: &Expr, hi: &Expr, step: i64, body: &[Stmt]) {
        assert!(step > 0, "loop steps must be positive");
        let counter = self.var_regs[var.0];
        assert_eq!(
            counter.class(),
            RegClass::Int,
            "loop variable must be an integer"
        );
        self.expr_to(Some(counter), lo);
        let bound = self.expr_to(None, hi);
        assert_eq!(
            bound.class(),
            RegClass::Int,
            "loop bound must be an integer"
        );

        let preheader = self.b.current_block();
        let header = self.b.add_block();
        let body0 = self.b.add_block();
        let latch = self.b.add_block();
        let exit = self.b.add_block();

        self.b.jmp(header);
        self.b.switch_to(header);
        let t = self.b.binop(Op::CmpLt, counter, bound);
        self.b.br(t, BrCond::Zero, exit, body0);

        // Register the loop before lowering the body so nested loops can
        // name it as parent.
        let loop_index = self.b.func().loops.len();
        self.b.func_mut().loops.push(CountedLoop {
            header,
            body: vec![body0],
            latch,
            exit,
            preheader,
            counter,
            step,
            bound: Bound::Reg(bound),
            parent: self.loop_stack.last().copied(),
        });

        self.b.switch_to(body0);
        let before = self.b.func().blocks().len();
        self.loop_stack.push(loop_index);
        self.stmts(body);
        self.loop_stack.pop();
        let after = self.b.func().blocks().len();
        self.b.jmp(latch);

        // Record every block created while lowering the body.
        let mut members = vec![body0];
        members.extend((before..after).map(bsched_ir::BlockId::new));
        self.b.func_mut().loops[loop_index].body = members;

        self.b.switch_to(latch);
        self.b.push(Inst::op_imm(Op::Add, counter, counter, step));
        self.b.jmp(header);
        self.b.switch_to(exit);
    }

    fn lower_if(&mut self, cond: &Expr, then_: &[Stmt], else_: &[Stmt]) {
        let c = self.expr_to(None, cond);
        assert_eq!(c.class(), RegClass::Int, "condition must be an integer");
        let then_b = self.b.add_block();
        let else_b = self.b.add_block();
        let join = self.b.add_block();
        self.b.br(c, BrCond::NonZero, then_b, else_b);
        self.b.switch_to(then_b);
        self.stmts(then_);
        self.b.jmp(join);
        self.b.switch_to(else_b);
        self.stmts(else_);
        self.b.jmp(join);
        self.b.switch_to(join);
    }

    /// Computes `(address register, byte displacement)` for an array
    /// reference.
    fn address(&mut self, arr: ArrId, index: &Index) -> (Reg, i64) {
        let base = self.arr_base[arr.0];
        match index {
            Index::Affine { terms, offset } => {
                // Each term is scaled to bytes individually so the whole
                // address chain stays affine in any one loop counter (the
                // linear-form analysis in `bsched-opt` relies on this).
                let mut acc: Option<Reg> = None;
                for &(v, c) in terms {
                    if c == 0 {
                        continue;
                    }
                    let vr = self.var_regs[v.0];
                    assert_eq!(
                        vr.class(),
                        RegClass::Int,
                        "index variables must be integers"
                    );
                    let bytes = c * 8;
                    let term = if bytes > 0 && (bytes as u64).is_power_of_two() {
                        self.b
                            .binop_imm(Op::Shl, vr, i64::from(bytes.trailing_zeros()))
                    } else {
                        self.b.binop_imm(Op::Mul, vr, bytes)
                    };
                    acc = Some(match acc {
                        None => term,
                        Some(a) => self.b.binop(Op::Add, a, term),
                    });
                }
                match acc {
                    None => (base, offset * 8),
                    Some(a) => {
                        let addr = self.b.binop(Op::Add, base, a);
                        (addr, offset * 8)
                    }
                }
            }
            Index::Dyn(e) => {
                let idx = self.expr_to(None, e);
                assert_eq!(
                    idx.class(),
                    RegClass::Int,
                    "dynamic index must be an integer"
                );
                let bytes = self.b.binop_imm(Op::Shl, idx, 3);
                let addr = self.b.binop(Op::Add, base, bytes);
                (addr, 0)
            }
        }
    }

    /// Lowers an expression; when `dst` is given the root operation writes
    /// it (so scalar assignments keep a single def per statement).
    fn expr_to(&mut self, dst: Option<Reg>, e: &Expr) -> Reg {
        match e {
            Expr::Int(v) => match dst {
                Some(d) => {
                    self.b.push(Inst::li(d, *v));
                    d
                }
                None => self.b.iconst(*v),
            },
            Expr::Float(v) => match dst {
                Some(d) => {
                    self.b.push(Inst::fli(d, *v));
                    d
                }
                None => self.b.fconst(*v),
            },
            Expr::Var(v) => {
                let r = self.var_regs[v.0];
                match dst {
                    Some(d) if d != r => {
                        self.b.push(Inst::copy(d, r));
                        d
                    }
                    _ => r,
                }
            }
            Expr::Load(arr, index) => {
                let (addr, disp) = self.address(*arr, index);
                let region = self.arr_region[arr.0];
                let d = dst.unwrap_or_else(|| self.b.new_reg(RegClass::Float));
                self.b.push(Inst::load(d, addr, disp).with_region(region));
                d
            }
            Expr::Bin(op, a, bx) => {
                let ty = self.ty(a);
                assert_eq!(ty, self.ty(bx), "mixed-type arithmetic");
                let ra = self.expr_to(None, a);
                let rb = self.expr_to(None, bx);
                let opcode = match (op, ty) {
                    (BinOp::Add, ScalarTy::Int) => Op::Add,
                    (BinOp::Sub, ScalarTy::Int) => Op::Sub,
                    (BinOp::Mul, ScalarTy::Int) => Op::Mul,
                    (BinOp::And, ScalarTy::Int) => Op::And,
                    (BinOp::Shl, ScalarTy::Int) => Op::Shl,
                    (BinOp::Shr, ScalarTy::Int) => Op::Shr,
                    (BinOp::Add, ScalarTy::Float) => Op::FAdd,
                    (BinOp::Sub, ScalarTy::Float) => Op::FSub,
                    (BinOp::Mul, ScalarTy::Float) => Op::FMul,
                    (BinOp::Div, ScalarTy::Float) => Op::FDivD,
                    (BinOp::Div, ScalarTy::Int) => panic!("integer division is not in the ISA"),
                    (b, t) => panic!("operator {b:?} is not valid at type {t:?}"),
                };
                self.emit_op(dst, opcode, &[ra, rb])
            }
            Expr::Cmp(op, a, bx) => {
                let ty = self.ty(a);
                assert_eq!(ty, self.ty(bx), "mixed-type comparison");
                let ra = self.expr_to(None, a);
                let rb = self.expr_to(None, bx);
                let opcode = match (op, ty) {
                    (CmpOp::Eq, ScalarTy::Int) => Op::CmpEq,
                    (CmpOp::Lt, ScalarTy::Int) => Op::CmpLt,
                    (CmpOp::Le, ScalarTy::Int) => Op::CmpLe,
                    (CmpOp::Eq, ScalarTy::Float) => Op::FCmpEq,
                    (CmpOp::Lt, ScalarTy::Float) => Op::FCmpLt,
                    (CmpOp::Le, ScalarTy::Float) => Op::FCmpLe,
                };
                self.emit_op(dst, opcode, &[ra, rb])
            }
            Expr::Select(c, a, bx) => {
                let rc = self.expr_to(None, c);
                let ra = self.expr_to(None, a);
                let rb = self.expr_to(None, bx);
                assert_eq!(ra.class(), rb.class(), "select arms must agree");
                let d = dst.unwrap_or_else(|| self.b.new_reg(ra.class()));
                self.b.push(Inst::select(d, rc, ra, rb));
                d
            }
            Expr::IntToFloat(a) => {
                let ra = self.expr_to(None, a);
                self.emit_op(dst, Op::CvtIF, &[ra])
            }
            Expr::FloatToInt(a) => {
                let ra = self.expr_to(None, a);
                self.emit_op(dst, Op::CvtFI, &[ra])
            }
            Expr::Sqrt(a) => {
                let ra = self.expr_to(None, a);
                self.emit_op(dst, Op::FSqrt, &[ra])
            }
            Expr::Neg(a) => {
                let ra = self.expr_to(None, a);
                self.emit_op(dst, Op::FNeg, &[ra])
            }
        }
    }

    fn emit_op(&mut self, dst: Option<Reg>, op: Op, srcs: &[Reg]) -> Reg {
        let class = op.fixed_dst_class().unwrap_or(srcs[0].class());
        let d = dst.unwrap_or_else(|| self.b.new_reg(class));
        self.b.push(Inst::op(op, d, srcs));
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::{Interp, Terminator};

    fn axpy_kernel(n: i64) -> Kernel {
        let mut k = Kernel::new("axpy");
        let x = k.array("x", n as u64, ArrayInit::Ramp(0.0, 1.0));
        let y = k.array("y", n as u64, ArrayInit::Ramp(1.0, 0.5));
        let i = k.int_var("i");
        let body = vec![k.store(
            y,
            Index::of(i),
            Expr::load(x, Index::of(i)) * Expr::Float(2.0) + Expr::load(y, Index::of(i)),
        )];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(n), body));
        k
    }

    #[test]
    fn canonical_loop_shape() {
        let p = axpy_kernel(16).lower();
        assert!(bsched_ir::verify_program(&p).is_ok());
        let f = p.main();
        assert_eq!(f.loops.len(), 1);
        let l = &f.loops[0];
        // Header: single compare + conditional branch to exit.
        let h = f.block(l.header);
        assert_eq!(h.insts.len(), 1);
        assert_eq!(h.insts[0].op, Op::CmpLt);
        assert!(matches!(
            h.term,
            Terminator::Br {
                when: BrCond::Zero,
                ..
            }
        ));
        // Latch: single increment + jump to header.
        let latch = f.block(l.latch);
        assert_eq!(latch.insts.len(), 1);
        assert_eq!(latch.insts[0].op, Op::Add);
        assert_eq!(latch.insts[0].dst, Some(l.counter));
        assert_eq!(latch.term, Terminator::Jmp(l.header));
        // Single-block body jumping to the latch.
        assert_eq!(l.body.len(), 1);
        assert_eq!(f.block(l.body[0]).term, Terminator::Jmp(l.latch));
    }

    #[test]
    fn axpy_computes_correctly() {
        let p = axpy_kernel(16).lower();
        let out = Interp::new(&p).run().unwrap();
        // Rebuild the expected memory by hand.
        let mut img = bsched_ir::MemImage::new(&p);
        let ybase = p.region_bases()[1];
        for i in 0..16u64 {
            let x = i as f64;
            let y = 1.0 + 0.5 * i as f64;
            img.store(ybase + 8 * i, (2.0 * x + y).to_bits()).unwrap();
        }
        assert_eq!(out.checksum, img.checksum());
    }

    #[test]
    fn nested_loops_have_parent_links() {
        let mut k = Kernel::new("nest");
        let a = k.array("a", 64, ArrayInit::Zero);
        let i = k.int_var("i");
        let j = k.int_var("j");
        let inner = vec![k.store(
            a,
            Index::two(i, 8, j, 1, 0),
            Expr::IntToFloat(Box::new(Expr::Var(i))) + Expr::IntToFloat(Box::new(Expr::Var(j))),
        )];
        let outer = vec![k.for_loop(j, Expr::Int(0), Expr::Int(8), inner)];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(8), outer));
        let p = k.lower();
        let f = p.main();
        assert_eq!(f.loops.len(), 2);
        assert_eq!(f.loops[0].parent, None);
        assert_eq!(f.loops[1].parent, Some(0));
        assert_eq!(f.innermost_loops(), vec![1]);
        // The outer body must contain all inner-loop blocks.
        for b in f.loops[1].all_blocks() {
            assert!(f.loops[0].body.contains(&b), "outer body misses {b}");
        }
        let out = Interp::new(&p).run().unwrap();
        assert!(out.inst_count > 64 * 4);
    }

    #[test]
    fn if_lowering_and_semantics() {
        // s = 0; for i in 0..10 { if i < 5 { s = s + 1 } else { s = s + 100 } }; a[0] = float(s)
        let mut k = Kernel::new("iff");
        let a = k.array("a", 8, ArrayInit::Zero);
        let i = k.int_var("i");
        let s = k.int_var("s");
        k.push(k.assign(s, Expr::Int(0)));
        let body = vec![Stmt::If {
            cond: Expr::cmp(CmpOp::Lt, Expr::Var(i), Expr::Int(5)),
            then_: vec![k.assign(s, Expr::Var(s) + Expr::Int(1))],
            else_: vec![k.assign(s, Expr::Var(s) + Expr::Int(100))],
        }];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(10), body));
        k.push(k.store(
            a,
            Index::constant(0),
            Expr::IntToFloat(Box::new(Expr::Var(s))),
        ));
        let p = k.lower();
        assert!(bsched_ir::verify_program(&p).is_ok());
        let out = Interp::new(&p).run().unwrap();
        let mut img = bsched_ir::MemImage::new(&p);
        img.store(p.region_bases()[0], (505.0f64).to_bits())
            .unwrap();
        assert_eq!(out.checksum, img.checksum());
    }

    #[test]
    fn dynamic_index_round_trip() {
        // idx[i] holds a permutation; out[i] = data[idx[i]].
        let mut k = Kernel::new("gather");
        let data = k.array("data", 8, ArrayInit::Ramp(10.0, 1.0));
        // (7q + 7) mod 8 = 7 - q: the reversal permutation.
        let idx = k.array("idx", 8, ArrayInit::Affine { mul: 7, add: 7 });
        let out = k.array("out", 8, ArrayInit::Zero);
        let i = k.int_var("i");
        let body = vec![k.store(
            out,
            Index::of(i),
            Expr::load(
                data,
                Index::Dyn(Box::new(Expr::FloatToInt(Box::new(Expr::load(
                    idx,
                    Index::of(i),
                ))))),
            ),
        )];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(8), body));
        let p = k.lower();
        let o = Interp::new(&p).run().unwrap();
        let mut img = bsched_ir::MemImage::new(&p);
        let ob = p.region_bases()[2];
        for i in 0..8u64 {
            img.store(ob + 8 * i, (10.0 + (7 - i) as f64).to_bits())
                .unwrap();
        }
        assert_eq!(o.checksum, img.checksum());
    }

    #[test]
    fn strided_loop() {
        // for i in (0..16).step_by(4) { a[i] = 1.0 }
        let mut k = Kernel::new("stride");
        let a = k.array("a", 16, ArrayInit::Zero);
        let i = k.int_var("i");
        let body = vec![k.store(a, Index::of(i), Expr::Float(1.0))];
        k.push(k.for_loop_step(i, Expr::Int(0), Expr::Int(16), 4, body));
        let p = k.lower();
        assert_eq!(p.main().loops[0].step, 4);
        let o = Interp::new(&p).run().unwrap();
        let mut img = bsched_ir::MemImage::new(&p);
        for i in (0..16u64).step_by(4) {
            img.store(p.region_bases()[0] + 8 * i, 1.0f64.to_bits())
                .unwrap();
        }
        assert_eq!(o.checksum, img.checksum());
    }

    #[test]
    fn random_init_is_deterministic() {
        let v1 = gen_init(16, &ArrayInit::Random(42));
        let v2 = gen_init(16, &ArrayInit::Random(42));
        let v3 = gen_init(16, &ArrayInit::Random(43));
        assert_eq!(v1, v2);
        assert_ne!(v1, v3);
        assert!(v1.iter().all(|x| *x > 0.0 && *x <= 1.0 + 1e-9));
    }
}
