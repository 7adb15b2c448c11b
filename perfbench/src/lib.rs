//! `perfbench` — the reproduction's benchmark: two workloads, their
//! end-to-end metrics, and a traced run that splits them into layers.
//! See `perfbench/README.md` for the metric definitions and how to run
//! it.

#![forbid(unsafe_code)]

pub mod cells;
pub mod check;
pub mod metrics;
pub mod mix;
pub mod pass;
pub mod replay;
pub mod serve;
pub mod spans;
pub mod stats;
