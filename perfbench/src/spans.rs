//! Folds `bsched-trace` spans into per-name totals and self times.

use bsched_trace::{Event, EventKind};
use std::collections::BTreeMap;

/// Totals for one span name (`cat.name`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans seen.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed durations minus the time covered by direct child spans.
    pub self_ns: u64,
}

/// Self time per span name. A span's parent is the innermost span on
/// the same thread whose interval contains it.
#[must_use]
pub fn fold(events: &[Event]) -> BTreeMap<String, SpanTotals> {
    let mut spans: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span)
        .collect();
    // Per thread, outer spans before the spans they contain.
    spans.sort_by_key(|e| (e.tid, e.ts_ns, std::cmp::Reverse(e.dur_ns)));
    let mut self_ns: Vec<u64> = spans.iter().map(|e| e.dur_ns).collect();
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        let e = spans[i];
        while let Some(&top) = stack.last() {
            let t = spans[top];
            if t.tid == e.tid && e.ts_ns + e.dur_ns <= t.ts_ns + t.dur_ns {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            self_ns[parent] = self_ns[parent].saturating_sub(e.dur_ns);
        }
        stack.push(i);
    }
    let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for (e, s) in spans.iter().zip(self_ns) {
        let t = out
            .entry(format!("{}.{}", e.id.cat, e.id.name))
            .or_default();
        t.count += 1;
        t.total_ns += e.dur_ns;
        t.self_ns += s;
    }
    out
}
