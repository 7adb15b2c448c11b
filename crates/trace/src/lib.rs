//! Structured tracing and metrics for the balanced-scheduling stack.
//!
//! The paper's numbers are explained by *why* a schedule stalls — which
//! loads interlocked, for how many cycles, at which memory level; how
//! each pass grew the IR; where the harness spent its wall time. This
//! crate records those facts as typed events without perturbing the
//! measurement:
//!
//! * **Off by default, no-op when off.** Instrumentation points guard on
//!   a single relaxed atomic load ([`enabled`]); with tracing disabled
//!   no clock is read, no label is formatted, and no allocation happens,
//!   so the scheduler, optimizer, and simulator hot paths keep their
//!   current speed. CI pins this deterministically rather than by a
//!   timing ratio: `bsched-pipeline`'s `weights_untraced` test requires
//!   the weight kernel to record zero events with the recorder on.
//! * **Lock-free-enough recording.** Each thread appends to a
//!   thread-local buffer; buffers flush to a global collector when they
//!   fill, when [`flush_thread`] is called, or when the thread exits.
//!   Workers never contend on the hot path.
//! * **Deterministic exports.** [`TraceReport`] sorts events by their
//!   static identity, label, and payload — never by wall-clock alone —
//!   so two runs of the same deterministic workload export the same
//!   event sequence (timestamps aside). [`ParsedTrace::normalized`]
//!   zeroes the non-deterministic fields for golden comparisons.
//! * **Versioned schema.** The JSON export carries
//!   [`TRACE_SCHEMA_VERSION`], and [`ParsedTrace::parse`] refuses any
//!   other version loudly rather than misreading fields — the same
//!   policy as the `bsched-serve` wire.
//!
//! # Recording
//!
//! ```
//! use bsched_trace as trace;
//!
//! let (sum, events) = trace::capture(|| {
//!     let span = trace::span(trace::points::HARNESS_CELL).label_with(|| "demo".into());
//!     let sum: u64 = (1..=3).sum();
//!     span.finish(&[("sum", sum)]);
//!     sum
//! });
//! assert_eq!(sum, 6);
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].arg("sum"), Some(6));
//! ```
//!
//! # Exporting
//!
//! ```
//! use bsched_trace::{ParsedTrace, TraceReport};
//! # let (_, events) = bsched_trace::capture(|| {
//! #     bsched_trace::instant(bsched_trace::points::SIM_RUN, "k", &[("cycles", 7)]);
//! # });
//! let report = TraceReport::new(events);
//! let parsed = ParsedTrace::parse(&report.to_json_string()).unwrap();
//! assert_eq!(parsed.events().len(), 1);
//! ```

mod event;
mod recorder;
mod report;

pub use event::{points, Event, EventKind, TraceId};
pub use recorder::{
    capture, clear, drain, enable_scope, enabled, flush_thread, instant, set_enabled, span,
    EnableGuard, Span,
};
pub use report::{ParsedEvent, ParsedTrace, TraceReadError, TraceReport, TRACE_SCHEMA_VERSION};
