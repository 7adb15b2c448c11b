//! The event model: static identities plus one dynamic record type.

/// The static identity of one instrumentation point: a subsystem
/// category and a point name, both `'static` so recording an event
/// never allocates for identity.
///
/// The well-known points of this workspace live in [`points`]; new
/// points are just new constants — the schema carries the strings, so
/// readers need no registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId {
    /// Subsystem, e.g. `"pipeline"` or `"sim"`.
    pub cat: &'static str,
    /// Point name within the subsystem, e.g. `"pass"`.
    pub name: &'static str,
}

impl TraceId {
    /// A new identity (const, so points can be `pub const`).
    #[must_use]
    pub const fn new(cat: &'static str, name: &'static str) -> Self {
        TraceId { cat, name }
    }
}

/// The instrumentation points wired through the stack. Centralized so
/// tests and sinks can match on identity instead of strings.
pub mod points {
    use super::TraceId;

    /// One full compilation (span). Label: program name. Args:
    /// `before`/`after` static instruction counts.
    pub const PIPELINE_COMPILE: TraceId = TraceId::new("pipeline", "compile");
    /// One optimization/codegen pass inside the pipeline (span). Label:
    /// pass name. Args: `before`/`after` static instruction counts.
    pub const PIPELINE_PASS: TraceId = TraceId::new("pipeline", "pass");
    /// One source program's reference result: verification plus an
    /// interpreter run of the unoptimized code (span, at most once per
    /// shared source). Label: program name.
    pub const PIPELINE_REFERENCE: TraceId = TraceId::new("pipeline", "reference");
    /// One scheduled straight-line region (instant). Label: function
    /// name. Args: `block`, `insts`, `loads`, `weight_sum`, `weight_max`.
    pub const SCHED_REGION: TraceId = TraceId::new("sched", "region");
    /// One load's scheduling weight (instant, one per load in a
    /// region). Label: function name. Args: `block`, `slot` (the
    /// load's index in the region's original order), `weight` (the
    /// policy's assigned latency weight).
    pub const SCHED_LOAD_WEIGHT: TraceId = TraceId::new("sched", "load_weight");
    /// One exact branch-and-bound search over a region (span). Label:
    /// function name. Args: `block`, `insts`, `nodes` (expanded) and
    /// `proven` (1 when the search finished within its budget, 0 when
    /// it fell back to its best-found schedule).
    pub const SCHED_EXACT: TraceId = TraceId::new("sched", "exact");
    /// One exact-search budget exhaustion (instant): the branch-and-
    /// bound arm fell back to its best-found-so-far schedule. Label:
    /// function name. Args: `block`, `insts`, `nodes` (explored),
    /// `best_cost`, `heuristic_cost`.
    pub const SCHED_EXACT_FALLBACK: TraceId = TraceId::new("sched", "exact_fallback");
    /// One simulated run (span). Label: program name. Args: `cycles`,
    /// `load_interlock`.
    pub const SIM_RUN: TraceId = TraceId::new("sim", "run");
    /// Per-static-load interlock attribution (instant, one per load
    /// site that issued). Label: program name. Args: `site`, `block`,
    /// `issued`, `interlock`, `mshr_stall`, `l1`, `l2`, `l3`, `mem` —
    /// `interlock + mshr_stall` summed over sites equals the
    /// simulator's aggregate `load_interlock` counter exactly.
    pub const SIM_LOAD_SITE: TraceId = TraceId::new("sim", "load_site");
    /// One executed harness cell (span). Label: `kernel/config`.
    pub const HARNESS_CELL: TraceId = TraceId::new("harness", "cell");
    /// One conformance violation (instant). Label: the violation
    /// message. Args: `region_count`.
    pub const VERIFY_VIOLATION: TraceId = TraceId::new("verify", "violation");
    /// One trace-scheduling pass over a function (instant). Label:
    /// function name. Args: `traces`, `moved`.
    pub const OPT_TRACE: TraceId = TraceId::new("opt", "trace_schedule");
}

/// Whether an [`Event`] covers a duration or marks a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A region of time (`dur_ns` meaningful).
    Span,
    /// A point in time (`dur_ns == 0`).
    Instant,
}

impl EventKind {
    /// The schema string (`"span"` / `"instant"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Instant => "instant",
        }
    }
}

/// One recorded observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Which instrumentation point recorded it.
    pub id: TraceId,
    /// Span or instant.
    pub kind: EventKind,
    /// Nanoseconds since the process trace epoch (first record).
    pub ts_ns: u64,
    /// Span duration in nanoseconds; 0 for instants.
    pub dur_ns: u64,
    /// Recording thread: a small dense id in first-record order.
    pub tid: u64,
    /// Dynamic context (kernel name, pass name, cell label); may be
    /// empty. The only owned string per event.
    pub label: String,
    /// Numeric payload, in the order the instrumentation point listed
    /// it. Keys are `'static` — payload shape is part of the point's
    /// contract, not per-event data.
    pub args: Vec<(&'static str, u64)>,
}

impl Event {
    /// Looks up one payload value by key.
    #[must_use]
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_lookup_finds_values_and_misses_cleanly() {
        let e = Event {
            id: points::SIM_RUN,
            kind: EventKind::Instant,
            ts_ns: 0,
            dur_ns: 0,
            tid: 1,
            label: String::new(),
            args: vec![("cycles", 10), ("load_interlock", 3)],
        };
        assert_eq!(e.arg("cycles"), Some(10));
        assert_eq!(e.arg("load_interlock"), Some(3));
        assert_eq!(e.arg("absent"), None);
    }

    #[test]
    fn trace_ids_order_by_category_then_name() {
        let a = TraceId::new("pipeline", "compile");
        let b = TraceId::new("pipeline", "pass");
        let c = TraceId::new("sim", "run");
        assert!(a < b && b < c);
    }
}
