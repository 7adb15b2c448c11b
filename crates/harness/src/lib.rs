//! `bsched-harness` — the parallel, content-cached experiment-execution
//! engine behind every table/figure binary.
//!
//! The paper's data (Tables 4–9, §5.5, the superscalar sweep) is a grid
//! of independent experiment *cells* — `(kernel, CompileOptions)` pairs,
//! where the options embed the full machine configuration. The table
//! binaries overlap heavily in the cells they need: Table 8 re-derives
//! everything Tables 5–7 already computed. This crate makes that grid a
//! first-class object:
//!
//! 1. **Enumeration & deduplication** — [`ExperimentCell`] derives a
//!    canonical, version-stamped key ([`cell::CACHE_SCHEMA_VERSION`])
//!    from every result-affecting field of the cell; equal cells are
//!    executed once, no matter how many tables request them.
//! 2. **Parallel execution** — a std-only self-scheduling pool
//!    ([`pool`]): scoped worker threads claim the next job from one
//!    atomic counter, sized by `std::thread::available_parallelism()`
//!    and overridable with `BSCHED_JOBS`. A job is one compile: the
//!    batch's misses that differ only in the simulated machine share
//!    it (compilation reads no machine), and each is then simulated on
//!    its own machine.
//! 3. **Memoization** — an in-memory [`store::ResultStore`] plus an
//!    on-disk content-addressed cache ([`disk::DiskCache`]) under
//!    `results/cache/`, keyed by an FNV-1a hash of the canonical cell
//!    key; each document also records its kernel program's digest, so
//!    an edited kernel misses. Warm re-runs are near-instant;
//!    `BSCHED_NO_CACHE=1` bypasses the disk layer.
//! 4. **Observability** — a structured [`report::RunReport`]: per-cell
//!    wall times, worker utilization, cache hit/miss counts, slowest
//!    cells.
//! 5. **Verification** — with [`EngineConfig::verify`] (CLI `--verify`,
//!    env `BSCHED_VERIFY=1`), every executed cell runs the
//!    `bsched-verify` conformance suite — schedule legality, weight
//!    cross-check, differential replay, metamorphic invariants — and
//!    violations fail the run. Results carry a `verified` flag through
//!    both cache layers; a verifying run recomputes unverified entries.
//!
//! Output is deterministic by construction: results are keyed by cell
//! and looked up in the caller's iteration order, so emitted tables and
//! CSVs are byte-identical whether computed with 1 worker or N, cold or
//! warm.
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
pub mod disk;
pub mod engine;
pub mod pool;
pub mod report;
pub mod store;

pub use cell::{ExperimentCell, CACHE_SCHEMA_VERSION};
pub use disk::{decode_metrics, encode_metrics};
pub use engine::{CellResult, Engine, EngineConfig, HarnessError};
pub use report::{emit_stderr, RunReport};
pub use store::ResultStore;
