//! `bsched-core` — balanced instruction scheduling.
//!
//! This crate implements the paper's primary contribution: a top-down list
//! scheduler in the style of the Multiflow compiler's Phase 3, whose *load
//! weights* can come from three policies:
//!
//! * [`SchedulerKind::Traditional`] — every load gets the optimistic,
//!   architecturally fixed L1-hit latency, as a blocking-processor
//!   scheduler would assume.
//! * [`SchedulerKind::Balanced`] — the Kerns–Eggers balanced-scheduling
//!   weights: each load's weight reflects the *load-level parallelism*
//!   available to hide it, i.e. the number of independent instructions
//!   that can issue while the load is outstanding, shared among the loads
//!   competing for them.
//! * [`SchedulerKind::SelectiveBalanced`] — locality-analysis-aware
//!   variant (paper §3.3): loads proven to be cache hits keep the
//!   optimistic latency and *donate* their issue slots as latency-hiding
//!   parallelism for the remaining (miss/unknown) loads, which are
//!   balanced.
//!
//! The scheduler itself ([`schedule_order`], [`schedule_function`]) uses
//! the priority function and tie-break heuristics of the paper's §4.2:
//! priority = weight + max successor priority; ties broken by (1) largest
//! consumed-minus-defined register count, (2) most newly exposed DAG
//! successors, (3) original program order.
//!
//! # Example: the shape of the paper's Figure 1
//!
//! ```
//! use bsched_core::{compute_weights, SchedulerKind, WeightConfig};
//! use bsched_ir::{Dag, Inst, Op, Reg, RegClass, RegionId};
//!
//! // Two independent loads: an independent FP instruction fully covers
//! // both, so both get identical balanced weights above the hit latency.
//! let r = |n| Reg::virt(RegClass::Int, n);
//! let f = |n| Reg::virt(RegClass::Float, n);
//! let insts = vec![
//!     Inst::load(f(0), r(0), 0).with_region(RegionId::new(0)),
//!     Inst::load(f(1), r(1), 0).with_region(RegionId::new(1)),
//!     Inst::op(Op::FAdd, f(2), &[f(3), f(4)]),
//! ];
//! let dag = Dag::new(&insts);
//! let w = compute_weights(&insts, &dag, &WeightConfig::new(SchedulerKind::Balanced));
//! assert_eq!(w[0], w[1]);
//! assert!(w[0] > Op::Ld.latency());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod exact;
pub mod priority;
pub mod scheduler;
pub mod weights;

pub use audit::{RegionSchedule, ScheduleAudit};
pub use exact::{
    schedule_cost, schedule_region_exact, ExactOutcome, ExactStats, DEFAULT_EXACT_BUDGET,
};
pub use priority::compute_priorities;
pub use scheduler::{
    schedule_function, schedule_function_audited, schedule_function_stats, schedule_function_with,
    schedule_order, schedule_region, schedule_region_bounded, schedule_region_full,
    schedule_region_with_pressure, TieBreak, PRESSURE_LIMIT,
};
pub use weights::{
    compute_weights, compute_weights_counted, compute_weights_reference, SchedulerKind,
    WeightConfig, WeightWork,
};
