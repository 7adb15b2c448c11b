//! The recorder: a global enable flag, thread-local buffers, and a
//! global collector.
//!
//! Hot-path contract: every instrumentation point first checks
//! [`enabled`] — one relaxed atomic load. Only when tracing is on does
//! it read the clock, format a label, or touch the thread-local buffer.
//! Buffers flush to the collector when full, on [`flush_thread`], and on
//! thread exit, so workers never contend on the hot path.

use crate::event::{Event, EventKind, TraceId};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static COLLECTOR: Mutex<Vec<Event>> = Mutex::new(Vec::new());

/// Local buffer size that triggers a flush to the collector.
const FLUSH_AT: usize = 256;

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let e = EPOCH.get_or_init(Instant::now).elapsed();
    u64::try_from(e.as_nanos()).unwrap_or(u64::MAX)
}

struct LocalBuf {
    tid: u64,
    events: Vec<Event>,
}

impl LocalBuf {
    fn flush(&mut self) {
        if !self.events.is_empty() {
            COLLECTOR
                .lock()
                .expect("trace collector poisoned")
                .append(&mut self.events);
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        events: Vec::new(),
    });
}

fn record(mut event: Event) {
    // try_with: events recorded during thread teardown (after the
    // buffer's destructor) are dropped rather than panicking.
    let _ = LOCAL.try_with(|l| {
        let mut l = l.borrow_mut();
        event.tid = l.tid;
        l.events.push(event);
        if l.events.len() >= FLUSH_AT {
            l.flush();
        }
    });
}

/// Whether tracing is currently on. One relaxed atomic load — the only
/// cost instrumentation points pay when tracing is off.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on or off, process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Enables tracing until the returned guard drops, then restores the
/// previous state. The flag is process-global: overlapping scopes on
/// different threads observe each other (tests that need isolation run
/// the traced work in a subprocess or under a shared lock).
#[must_use]
pub fn enable_scope() -> EnableGuard {
    EnableGuard {
        prev: ENABLED.swap(true, Ordering::SeqCst),
    }
}

/// Restores the previous enable state on drop. See [`enable_scope`].
#[derive(Debug)]
pub struct EnableGuard {
    prev: bool,
}

impl Drop for EnableGuard {
    fn drop(&mut self) {
        ENABLED.store(self.prev, Ordering::SeqCst);
    }
}

/// Records a point-in-time event. No-op (and no allocation) when
/// tracing is off.
pub fn instant(id: TraceId, label: &str, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    record(Event {
        id,
        kind: EventKind::Instant,
        ts_ns: now_ns(),
        dur_ns: 0,
        tid: 0,
        label: label.to_string(),
        args: args.to_vec(),
    });
}

/// Opens a span. When tracing is off the returned guard is inert: no
/// clock read, and [`Span::label_with`] never runs its closure.
#[must_use = "a span records its duration when finished or dropped"]
pub fn span(id: TraceId) -> Span {
    if !enabled() {
        return Span { data: None };
    }
    Span {
        data: Some(SpanData {
            id,
            start_ns: now_ns(),
            label: String::new(),
            args: Vec::new(),
        }),
    }
}

#[derive(Debug)]
struct SpanData {
    id: TraceId,
    start_ns: u64,
    label: String,
    args: Vec<(&'static str, u64)>,
}

/// RAII guard for an open span; records one [`EventKind::Span`] event
/// on drop (or [`finish`](Span::finish)). Inert when created with
/// tracing off.
#[derive(Debug)]
#[must_use = "a span records its duration when finished or dropped"]
pub struct Span {
    data: Option<SpanData>,
}

impl Span {
    /// Sets the span label lazily — the closure only runs when the span
    /// is live, so hot paths never format strings with tracing off.
    pub fn label_with(mut self, f: impl FnOnce() -> String) -> Self {
        if let Some(d) = &mut self.data {
            d.label = f();
        }
        self
    }

    /// Appends one payload value (builder style, at open time).
    pub fn arg(mut self, key: &'static str, value: u64) -> Self {
        if let Some(d) = &mut self.data {
            d.args.push((key, value));
        }
        self
    }

    /// Whether this span will record an event (tracing was on when it
    /// opened).
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.data.is_some()
    }

    /// Closes the span, appending payload values computed after the
    /// work (e.g. an "after" instruction count).
    pub fn finish(mut self, extra: &[(&'static str, u64)]) {
        if let Some(d) = &mut self.data {
            d.args.extend_from_slice(extra);
        }
        // Drop records.
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(d) = self.data.take() {
            let end = now_ns();
            record(Event {
                id: d.id,
                kind: EventKind::Span,
                ts_ns: d.start_ns,
                dur_ns: end.saturating_sub(d.start_ns),
                tid: 0,
                label: d.label,
                args: d.args,
            });
        }
    }
}

/// Flushes the calling thread's buffer to the global collector. Worker
/// threads call this at natural boundaries (the harness does so after
/// every cell) so [`drain`] on another thread sees their events.
pub fn flush_thread() {
    let _ = LOCAL.try_with(|l| l.borrow_mut().flush());
}

/// Flushes the calling thread and takes every collected event.
/// Events still sitting in *other* live threads' buffers are not
/// included — flush those with [`flush_thread`] on their own threads
/// first (finished threads flush on exit automatically).
#[must_use]
pub fn drain() -> Vec<Event> {
    flush_thread();
    std::mem::take(&mut *COLLECTOR.lock().expect("trace collector poisoned"))
}

/// Discards everything collected so far (and the calling thread's
/// buffer).
pub fn clear() {
    let _ = drain();
}

/// Runs `f` with tracing enabled and returns its result together with
/// the events it recorded. Pre-existing uncollected events are
/// discarded first; the previous enable state is restored afterwards.
///
/// The enable flag is process-global, so concurrent captures (or
/// concurrent traced work on other threads) interleave their events;
/// callers that need exact attribution serialize captures.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
    let prev = ENABLED.swap(true, Ordering::SeqCst);
    clear();
    let result = f();
    let events = drain();
    ENABLED.store(prev, Ordering::SeqCst);
    (result, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::points;

    // The enable flag and collector are process-global; tests that
    // touch them serialize on this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_records_nothing_and_runs_no_closures() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        clear();
        instant(points::SIM_RUN, "x", &[("cycles", 1)]);
        let s = span(points::PIPELINE_PASS).label_with(|| panic!("label closure must not run"));
        assert!(!s.is_live());
        s.finish(&[("after", 2)]);
        assert!(drain().is_empty());
    }

    #[test]
    fn capture_returns_events_and_restores_state() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        let (value, events) = capture(|| {
            instant(points::SIM_RUN, "k", &[("cycles", 42)]);
            let sp = span(points::PIPELINE_PASS)
                .label_with(|| "dce".into())
                .arg("before", 10);
            sp.finish(&[("after", 7)]);
            5
        });
        assert_eq!(value, 5);
        assert!(!enabled(), "capture restores the previous state");
        assert_eq!(events.len(), 2);
        let inst = events.iter().find(|e| e.id == points::SIM_RUN).unwrap();
        assert_eq!(inst.kind, EventKind::Instant);
        assert_eq!(inst.arg("cycles"), Some(42));
        let sp = events
            .iter()
            .find(|e| e.id == points::PIPELINE_PASS)
            .unwrap();
        assert_eq!(sp.kind, EventKind::Span);
        assert_eq!(sp.label, "dce");
        assert_eq!(sp.arg("before"), Some(10));
        assert_eq!(sp.arg("after"), Some(7));
    }

    #[test]
    fn full_buffers_flush_to_the_collector() {
        let _g = TEST_LOCK.lock().unwrap();
        let (_, events) = capture(|| {
            for i in 0..(2 * FLUSH_AT as u64 + 3) {
                instant(points::SCHED_REGION, "", &[("block", i)]);
            }
        });
        assert_eq!(events.len(), 2 * FLUSH_AT + 3);
    }

    #[test]
    fn worker_thread_events_arrive_after_thread_exit() {
        let _g = TEST_LOCK.lock().unwrap();
        let (_, events) = capture(|| {
            std::thread::spawn(|| {
                instant(points::HARNESS_CELL, "from-worker", &[]);
            })
            .join()
            .unwrap();
        });
        assert_eq!(events.len(), 1, "thread exit flushes its buffer");
        assert_eq!(events[0].label, "from-worker");
        let main_tid = LOCAL.with(|l| l.borrow().tid);
        assert_ne!(events[0].tid, main_tid);
    }

    #[test]
    fn enable_scope_nests_and_restores() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        {
            let _outer = enable_scope();
            assert!(enabled());
            {
                let _inner = enable_scope();
                assert!(enabled());
            }
            assert!(enabled(), "inner scope restores to enabled");
        }
        assert!(!enabled());
        clear();
    }
}
