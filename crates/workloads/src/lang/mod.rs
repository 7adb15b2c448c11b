//! The structured loop language: AST, kernel builder, and lowering to the
//! canonical counted-loop IR shape.

pub mod ast;
pub mod lower;
pub mod parse;
pub mod print;

pub use ast::{ArrId, BinOp, CmpOp, Expr, Index, ScalarTy, Stmt, VarId};
pub use lower::lower_kernel;
pub use parse::{parse_kernel, ParseError};
pub use print::print_kernel;

use bsched_ir::Program;

/// How an array's initial contents are generated.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayInit {
    /// All zeros.
    Zero,
    /// `start, start+step, start+2*step, ...`
    Ramp(f64, f64),
    /// Deterministic pseudo-random values in (0, 1], seeded per array.
    Random(u64),
    /// Element `q` holds `(mul·q + add) mod elems`: a successor table,
    /// and a permutation when `mul` is coprime to the element count.
    Affine {
        /// Multiplier.
        mul: u64,
        /// Increment.
        add: u64,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct ArrayDecl {
    pub name: String,
    pub elems: u64,
    pub init: ArrayInit,
}

/// A kernel under construction: arrays, scalar variables, and a statement
/// list. [`Kernel::lower`] produces an executable [`Program`].
#[derive(Debug, Clone)]
pub struct Kernel {
    pub(crate) name: String,
    pub(crate) arrays: Vec<ArrayDecl>,
    pub(crate) scalars: Vec<(String, ScalarTy)>,
    pub(crate) stmts: Vec<Stmt>,
}

impl Kernel {
    /// Starts an empty kernel.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Kernel {
            name: name.into(),
            arrays: Vec::new(),
            scalars: Vec::new(),
            stmts: Vec::new(),
        }
    }

    /// Declares an array of `elems` 64-bit float elements.
    pub fn array(&mut self, name: impl Into<String>, elems: u64, init: ArrayInit) -> ArrId {
        self.arrays.push(ArrayDecl {
            name: name.into(),
            elems,
            init,
        });
        ArrId(self.arrays.len() - 1)
    }

    /// Declares an integer scalar variable.
    pub fn int_var(&mut self, name: impl Into<String>) -> VarId {
        self.scalars.push((name.into(), ScalarTy::Int));
        VarId(self.scalars.len() - 1)
    }

    /// Declares a floating-point scalar variable.
    pub fn float_var(&mut self, name: impl Into<String>) -> VarId {
        self.scalars.push((name.into(), ScalarTy::Float));
        VarId(self.scalars.len() - 1)
    }

    /// Appends a top-level statement.
    pub fn push(&mut self, stmt: Stmt) {
        self.stmts.push(stmt);
    }

    /// Convenience: a `for var in lo..hi` loop statement (step 1).
    #[must_use]
    pub fn for_loop(&self, var: VarId, lo: Expr, hi: Expr, body: Vec<Stmt>) -> Stmt {
        Stmt::For {
            var,
            lo,
            hi,
            step: 1,
            body,
        }
    }

    /// Convenience: a strided `for` loop statement.
    #[must_use]
    pub fn for_loop_step(
        &self,
        var: VarId,
        lo: Expr,
        hi: Expr,
        step: i64,
        body: Vec<Stmt>,
    ) -> Stmt {
        Stmt::For {
            var,
            lo,
            hi,
            step,
            body,
        }
    }

    /// Convenience: a store statement.
    #[must_use]
    pub fn store(&self, arr: ArrId, index: Index, value: Expr) -> Stmt {
        Stmt::Store { arr, index, value }
    }

    /// Convenience: a scalar assignment statement.
    #[must_use]
    pub fn assign(&self, var: VarId, value: Expr) -> Stmt {
        Stmt::AssignVar { var, value }
    }

    /// The kernel's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Lowers the kernel to an executable program in canonical
    /// counted-loop shape.
    ///
    /// # Panics
    ///
    /// Panics on type errors in the AST (mixed int/float operands, float
    /// loop bounds, out-of-range ids).
    #[must_use]
    pub fn lower(&self) -> Program {
        lower_kernel(self)
    }
}
