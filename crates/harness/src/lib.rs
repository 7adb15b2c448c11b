//! `bsched-harness` — the parallel, memoizing experiment-execution
//! engine behind every table/figure binary.
//!
//! The paper's data (Tables 4–9, §5.5, the superscalar sweep) is a grid
//! of independent experiment *cells* — `(kernel, CompileOptions)` pairs,
//! where the options embed the full machine configuration. The table
//! binaries overlap heavily in the cells they need: Table 8 re-derives
//! everything Tables 5–7 already computed. This crate makes that grid a
//! first-class object:
//!
//! 1. **Enumeration & deduplication** — an [`ExperimentCell`] is the
//!    typed `(kernel, CompileOptions)` value, compared and hashed on
//!    every field; equal cells are executed once, no matter how many
//!    tables request them. [`codec`] is its one JSON spelling.
//! 2. **Parallel execution** — a std-only self-scheduling pool
//!    ([`pool`]): scoped worker threads claim the next job from one
//!    atomic counter, sized by `std::thread::available_parallelism()`
//!    and overridable with `BSCHED_JOBS`. A job is one compile: the
//!    batch's misses that differ only in the simulated machine share
//!    it (compilation reads no machine), and each is then simulated on
//!    its own machine.
//! 3. **Memoization** — an in-memory [`store::ResultStore`], keyed by
//!    the cell itself, answers every repeat request within one
//!    process. An engine's kernel set is fixed when it is built, so a
//!    kernel name always means the same program. Nothing is written to
//!    disk: a run ends when its pool joins, and every process starts
//!    cold.
//! 4. **Observability** — a structured [`report::RunReport`]: per-cell
//!    wall times, worker utilization, memo hit counts, slowest cells.
//! 5. **Verification** — with [`EngineConfig::verify`] (CLI `--verify`,
//!    env `BSCHED_VERIFY=1`), every executed cell runs the
//!    `bsched-verify` conformance suite — schedule legality, weight
//!    cross-check, differential replay, metamorphic invariants — and
//!    violations fail the run. Results carry a `verified` flag; a
//!    verifying run recomputes memoized results that were not verified.
//!
//! Output is deterministic by construction: results are keyed by cell
//! and looked up in the caller's iteration order, so emitted tables and
//! CSVs are byte-identical whether computed with 1 worker or N.
//!
//! ```no_run
//! use bsched_harness::{Engine, EngineConfig, ExperimentCell};
//! use bsched_pipeline::{standard_grid, CompileOptions};
//!
//! let engine = Engine::with_standard_kernels(EngineConfig::from_env());
//! let cells: Vec<ExperimentCell> = engine
//!     .kernel_names()
//!     .iter()
//!     .flat_map(|k| {
//!         standard_grid()
//!             .into_iter()
//!             .map(move |cfg| ExperimentCell::new(k, cfg.options()))
//!     })
//!     .collect();
//! engine.run(&cells).expect("grid executes");
//! engine.report().emit(); // one atomic stderr write
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod codec;
pub mod engine;
pub mod pool;
pub mod report;
pub mod store;

pub use cell::ExperimentCell;
pub use codec::{cell_from_json, cell_to_json, decode_metrics, encode_metrics, CodecError};
pub use engine::{CellResult, Engine, EngineConfig, HarnessError};
pub use report::{emit_stderr, RunReport};
pub use store::ResultStore;
