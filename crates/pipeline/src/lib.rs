//! `bsched-pipeline` — the end-to-end compile-and-simulate driver.
//!
//! Reproduces the paper's methodology (§4): a kernel program is run
//! through the Multiflow-style phase order —
//!
//! 1. predication of simple conditionals (cmov),
//! 2. locality analysis with its peeling/unrolling/marking (§3.3),
//! 3. loop unrolling of the remaining innermost loops (§3.1),
//! 4. cleanup (copy propagation, DCE, chain merging),
//! 5. profile-guided trace scheduling (§3.2),
//! 6. basic-block list scheduling with traditional or balanced weights,
//! 7. graph-coloring register allocation with spill insertion —
//!
//! and then executed on the Alpha 21164-like timing simulator. Every
//! compiled configuration is cross-checked against the reference
//! interpreter: the observable memory checksum must match the unoptimized
//! program's. That reference checksum belongs to the [`Source`], which
//! computes it once however many sessions share it.
//!
//! ```
//! use bsched_pipeline::{ConfigKind, Experiment, SchedulerKind};
//! use bsched_workloads::lang::ast::{Expr, Index};
//! use bsched_workloads::lang::{ArrayInit, Kernel};
//!
//! let mut k = Kernel::new("demo");
//! let a = k.array("a", 64, ArrayInit::Ramp(0.0, 1.0));
//! let i = k.int_var("i");
//! let body = vec![k.store(a, Index::of(i), Expr::load(a, Index::of(i)) * Expr::Float(2.0))];
//! k.push(k.for_loop(i, Expr::Int(0), Expr::Int(64), body));
//! let program = k.lower();
//!
//! let run = Experiment::builder()
//!     .program("demo", program)
//!     .config(ConfigKind::Lu(4))
//!     .scheduler(SchedulerKind::Balanced)
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! assert!(run.checksum_ok);
//! assert!(run.metrics.cycles > 0);
//! ```
//!
//! Suite kernels resolve by name: `Experiment::builder().kernel("TRFD")`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod experiment;
pub mod experiments;
pub mod options;
pub mod run;
pub mod source;
pub mod table;

pub use bsched_core::{SchedulerKind, TieBreak};
pub use bsched_sim::{MachineInfo, MachineSpec, PredictorKind, SampleConfig, SampleStats, SimMode};
pub use compile::{CompileStats, Compiled, PipelineError};
pub use experiment::{resolve_kernel, Experiment, ExperimentBuilder, ExperimentError, Session};
pub use experiments::{standard_grid, ConfigKind, ExperimentConfig};
pub use options::CompileOptions;
pub use run::{RunResult, Runs};
pub use source::Source;
pub use table::Table;
