//! `bsched-sim` — an execution-driven timing simulator of a single-issue,
//! in-order, **non-blocking-load** Alpha 21164-like processor.
//!
//! The machine model follows the paper's §4.3: pipelined functional units
//! with the fixed latencies of Table 3, the three-level memory hierarchy
//! with a lockup-free first-level cache (from `bsched-mem`), instruction
//! and data TLBs, I-cache fetch, and branch prediction. Like the paper, we
//! simulate single instruction issue "to understand fully balanced
//! scheduling's ability to exploit load-level parallelism".
//!
//! The simulator is *execution driven*: it executes the program (real
//! values, real addresses, real branch outcomes) while tracking per-
//! register result-ready times on a scoreboard. It produces the metrics
//! the paper reports: total cycles, **load interlock cycles**, fixed-
//! latency interlock cycles, and dynamic instruction counts by class.
//!
//! Every simulation runs one timing loop over one program form: each
//! basic block is pre-decoded once into a cached static cost skeleton,
//! and the loop replays only dynamic state per visit, on the one
//! `bsched_mem::Hierarchy` and the one [`BranchPredictor`]. The two
//! engines of the [`SimEngine`] axis differ only in what that decode
//! proves: the block-compiled engine (the default) elides work its
//! proofs show cannot change a result, and the interpreting engine
//! decodes with every proof off, as the differential reference. They
//! produce bit-identical results. Sampled runs replay their
//! representative intervals through the same loop.
//!
//! ```
//! use bsched_ir::{FuncBuilder, Op, Program};
//! use bsched_sim::{MachineSpec, Simulator};
//!
//! let mut p = Program::new("demo");
//! let r = p.add_region("a", 64);
//! let mut b = FuncBuilder::new("main");
//! let base = b.load_region_addr(r);
//! let x = b.load_f(base, 0).with_region(r).emit(&mut b);
//! let y = b.binop(Op::FAdd, x, x);
//! b.store(y, base, 8).with_region(r).emit(&mut b);
//! b.ret();
//! p.set_main(b.finish());
//!
//! let machine = MachineSpec::alpha21164();
//! let m = Simulator::for_machine(&p, &machine).run().unwrap();
//! assert!(m.metrics.load_interlock > 0); // fadd waited on the cold load
//!
//! // Engines are interchangeable bit for bit:
//! use bsched_sim::SimEngine;
//! let interp = Simulator::for_machine(&p, &machine)
//!     .with_engine(SimEngine::Interpret)
//!     .run()
//!     .unwrap();
//! assert_eq!(m.metrics, interp.metrics);
//! assert_eq!(m.checksum, interp.checksum);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
pub mod branch;
pub mod config;
pub mod engine;
pub mod machine;
pub mod machines;
pub mod metrics;
pub mod sample;

pub use branch::BranchPredictor;
pub use config::{BranchConfig, PredictorKind, SimConfig};
pub use engine::SimEngine;
pub use machine::{SimResult, Simulator};
pub use machines::{MachineInfo, MachineSpec};
pub use metrics::{InstCounts, SimMetrics};
pub use sample::{SampleConfig, SampleStats, SimMode};
