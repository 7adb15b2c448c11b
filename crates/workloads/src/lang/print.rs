//! Pretty-printing kernels back to the textual DSL of
//! [`crate::lang::parse`].
//!
//! `parse(print(k))` lowers to exactly the program `k` lowers to
//! (verified by round-trip tests), which makes the textual form a
//! faithful interchange format for kernels.

use super::ast::{BinOp, CmpOp, Expr, Index, ScalarTy, Stmt};
use super::{ArrayInit, Kernel};
use std::fmt::Write;

/// Renders a kernel in the textual DSL.
#[must_use]
pub fn print_kernel(k: &Kernel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "kernel {}", k.name());
    for a in &k.arrays {
        let init = match &a.init {
            ArrayInit::Zero => "zero".to_string(),
            ArrayInit::Ramp(s, st) => format!("ramp({}, {})", float(*s), float(*st)),
            ArrayInit::Random(seed) => format!("random({seed})"),
            ArrayInit::Affine { mul, add } => format!("affine({mul}, {add})"),
        };
        let _ = writeln!(out, "array {}[{}] = {}", a.name, a.elems, init);
    }
    for (name, ty) in &k.scalars {
        let ty = match ty {
            ScalarTy::Int => "int",
            ScalarTy::Float => "float",
        };
        let _ = writeln!(out, "var {name}: {ty}");
    }
    for s in &k.stmts {
        stmt(&mut out, k, s, 0);
    }
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn stmt(out: &mut String, k: &Kernel, s: &Stmt, depth: usize) {
    indent(out, depth);
    match s {
        Stmt::AssignVar { var, value } => {
            let _ = writeln!(out, "{} = {}", k.scalars[var.0].0, expr(k, value));
        }
        Stmt::Store { arr, index, value } => {
            let _ = writeln!(
                out,
                "{}[{}] = {}",
                k.arrays[arr.0].name,
                index_str(k, index),
                expr(k, value)
            );
        }
        Stmt::For {
            var,
            lo,
            hi,
            step,
            body,
        } => {
            let step_str = if *step == 1 {
                String::new()
            } else {
                format!(" step {step}")
            };
            let _ = writeln!(
                out,
                "for {} in {}..{}{step_str} {{",
                k.scalars[var.0].0,
                expr(k, lo),
                expr(k, hi)
            );
            for b in body {
                stmt(out, k, b, depth + 1);
            }
            indent(out, depth);
            out.push_str("}\n");
        }
        Stmt::If { cond, then_, else_ } => {
            let _ = writeln!(out, "if {} {{", expr(k, cond));
            for b in then_ {
                stmt(out, k, b, depth + 1);
            }
            indent(out, depth);
            if else_.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                for b in else_ {
                    stmt(out, k, b, depth + 1);
                }
                indent(out, depth);
                out.push_str("}\n");
            }
        }
    }
}

fn index_str(k: &Kernel, index: &Index) -> String {
    match index {
        Index::Affine { terms, offset } => {
            let mut parts = Vec::new();
            for (v, c) in terms {
                match c {
                    1 => parts.push(k.scalars[v.0].0.clone()),
                    -1 => parts.push(format!("0 - {}", k.scalars[v.0].0)),
                    c => parts.push(format!("{c} * {}", k.scalars[v.0].0)),
                }
            }
            if *offset != 0 || parts.is_empty() {
                parts.push(offset.to_string());
            }
            parts.join(" + ")
        }
        Index::Dyn(e) => expr(k, e),
    }
}

fn expr(k: &Kernel, e: &Expr) -> String {
    match e {
        // The parser reads `-` glued to a literal as part of it.
        Expr::Int(v) => v.to_string(),
        Expr::Float(v) => float(*v),
        Expr::Var(v) => k.scalars[v.0].0.clone(),
        Expr::Load(a, index) => format!("{}[{}]", k.arrays[a.0].name, index_str(k, index)),
        Expr::Bin(op, a, b) => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                // The DSL has no &,<<,>> surface syntax; they do not occur
                // in printable kernels (the builders never emit them).
                BinOp::And | BinOp::Shl | BinOp::Shr => {
                    unimplemented!("no DSL syntax for {op:?}")
                }
            };
            format!("({} {} {})", expr(k, a), sym, expr(k, b))
        }
        Expr::Cmp(op, a, b) => {
            let sym = match op {
                CmpOp::Eq => "==",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
            };
            format!("({} {} {})", expr(k, a), sym, expr(k, b))
        }
        Expr::Select(c, a, b) => {
            format!("select({}, {}, {})", expr(k, c), expr(k, a), expr(k, b))
        }
        Expr::IntToFloat(a) => format!("float({})", expr(k, a)),
        Expr::FloatToInt(a) => format!("int({})", expr(k, a)),
        Expr::Sqrt(a) => format!("sqrt({})", expr(k, a)),
        Expr::Neg(a) => format!("-({})", expr(k, a)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parse_kernel;
    use crate::suite::all_kernels;
    use bsched_ir::MemImage;

    /// `parse(print(k))` lowers to exactly `k`'s program and initial
    /// memory.
    fn assert_round_trips(name: &str, kernel: &Kernel) {
        let text = print_kernel(kernel);
        let reparsed = parse_kernel(&text)
            .unwrap_or_else(|e| panic!("{name}: printed text fails to parse: {e}\n{text}"));
        let (a, b) = (kernel.lower(), reparsed.lower());
        assert_eq!(
            a.to_string(),
            b.to_string(),
            "{name}: round-trip changed the lowered program"
        );
        assert_eq!(
            MemImage::new(&a).checksum(),
            MemImage::new(&b).checksum(),
            "{name}: round-trip changed the initial memory"
        );
    }

    #[test]
    fn suite_kernels_round_trip_through_text() {
        for spec in all_kernels() {
            assert_round_trips(spec.name, &spec.source());
        }
    }

    #[test]
    fn negations_and_negative_literals_round_trip() {
        let k = parse_kernel(
            r#"
            kernel neg
            array a[8] = affine(3, 1)
            var i: int
            var x: float
            var y: float
            x = -0.0
            y = -x
            y = -(2.5) * -1.5 - -y
            i = -3
            a[0 - i + -1] = y
        "#,
        )
        .unwrap();
        let text = print_kernel(&k);
        assert!(text.contains("y = -(x)"), "{text}");
        assert_round_trips("neg", &k);
    }

    #[test]
    fn printing_is_stable() {
        let k = all_kernels()[0].source();
        let t1 = print_kernel(&k);
        let t2 = print_kernel(&parse_kernel(&t1).unwrap());
        assert_eq!(t1.trim(), t2.trim(), "print(parse(print(k))) is a fixpoint");
    }
}
