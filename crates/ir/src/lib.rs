//! `bsched-ir` — an executable, Alpha-like virtual-register IR.
//!
//! This crate provides the program representation shared by every other
//! crate in the balanced-scheduling reproduction:
//!
//! * [`Op`]/[`Inst`]: a RISC instruction set modeled on the DEC Alpha
//!   integer/floating-point subset used by Lo & Eggers (PLDI 1995), with the
//!   fixed latencies of the paper's Table 3.
//! * [`Block`]/[`Function`]/[`Program`]: basic blocks with explicit
//!   terminators, functions carrying counted-loop metadata, and programs
//!   with named, cache-line-aligned memory regions.
//! * [`mod@cfg`]/[`dom`]/[`loops`]/[`liveness`]: control-flow analyses.
//! * [`dag`]: per-region code DAGs (data-dependence graphs) with memory
//!   disambiguation and locality-analysis ordering arcs — the structure the
//!   balanced scheduler's load-level-parallelism computation walks.
//! * [`interp`]: a functional (untimed) reference interpreter used as a
//!   correctness oracle for every optimization and as the profiler that
//!   feeds trace scheduling.
//!
//! # Example
//!
//! ```
//! use bsched_ir::{FuncBuilder, Op, Program, RegClass};
//!
//! let mut program = Program::new("demo");
//! let region = program.add_region("a", 256);
//! let mut b = FuncBuilder::new("main");
//! let base = b.load_region_addr(region);
//! let x = b.load_i(base, 0).with_region(region).emit(&mut b);
//! let one = b.iconst(1);
//! let sum = b.binop(Op::Add, x, one);
//! b.store(sum, base, 8).with_region(region).emit(&mut b);
//! b.ret();
//! program.set_main(b.finish());
//! assert_eq!(program.main().blocks().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod block;
pub mod builder;
pub mod cfg;
pub mod dag;
pub mod display;
pub mod dom;
pub mod func;
pub mod inst;
pub mod interp;
pub mod liveness;
pub mod loops;
pub mod opcode;
pub mod program;
pub mod reg;
pub mod value;
pub mod verify;

pub use analysis::DagAnalysis;
pub use block::{Block, BlockId, BrCond, Terminator};
pub use builder::{FuncBuilder, LoadBuilder, StoreBuilder};
pub use cfg::Cfg;
pub use dag::{Dag, DagBuilder, DepKind};
pub use dom::Dominators;
pub use func::{Bound, CountedLoop, Function};
pub use inst::{Inst, LocalityHint, MemAccess};
pub use interp::{ExecError, Interp, MemImage, Outcome, Profile};
pub use liveness::Liveness;
pub use loops::{LoopForest, NaturalLoop};
pub use opcode::{Op, OpClass};
pub use program::{Program, Region, RegionId};
pub use reg::{Reg, RegClass};
pub use value::Value;
pub use verify::{verify_function, verify_program, VerifyError};
