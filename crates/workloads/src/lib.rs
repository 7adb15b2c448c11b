//! `bsched-workloads` — the loop-language frontend and the 17 synthetic
//! kernels standing in for the paper's Perfect Club / SPEC92 workload.
//!
//! The paper compiled Fortran/C numeric programs with the Multiflow
//! compiler. We cannot redistribute those programs; instead [`lang`]
//! provides a compact structured loop language (arrays, affine indices,
//! scalars, `for`, `if`) whose lowering produces exactly the canonical
//! counted-loop IR shape the optimizations in `bsched-opt` consume, and
//! [`suite`] names one kernel per paper benchmark whose loop/branch/
//! array structure matches the paper's per-benchmark descriptions (see
//! DESIGN.md §2 for the substitution argument). Each suite kernel is
//! written once, in the loop language's textual form: the repository's
//! `kernels/*.bsk`, embedded at build time and parsed on use.
//!
//! ```
//! use bsched_workloads::lang::{ArrayInit, Kernel};
//! use bsched_workloads::lang::ast::{Expr, Index};
//!
//! let mut k = Kernel::new("axpy");
//! let x = k.array("x", 64, ArrayInit::Ramp(0.0, 1.0));
//! let y = k.array("y", 64, ArrayInit::Ramp(1.0, 0.5));
//! let i = k.int_var("i");
//! let body = vec![k.store(
//!     y,
//!     Index::of(i),
//!     Expr::load(x, Index::of(i)) * Expr::Float(2.0) + Expr::load(y, Index::of(i)),
//! )];
//! k.push(k.for_loop(i, Expr::Int(0), Expr::Int(64), body));
//! let program = k.lower();
//! assert!(bsched_ir::verify_program(&program).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lang;
pub mod suite;

pub use lang::{parse_kernel, ArrayInit, Kernel, ParseError};
pub use suite::{all_kernels, kernel_by_name, KernelSpec};
