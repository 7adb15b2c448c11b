//! The serving core: admission control, in-flight deduplication, and
//! batch dispatch into the shared experiment engine.
//!
//! Every connection handler talks to one [`ServeCore`]:
//!
//! * [`ServeCore::submit`] admits a batch of cells under a **bounded
//!   queue** — when admitting would push the queue past its limit the
//!   whole submit is rejected immediately ([`SubmitError::Overloaded`]),
//!   so a burst above capacity costs the client one round-trip, never
//!   the server unbounded memory;
//! * identical in-flight cells are **deduplicated across clients**: a
//!   submit whose cell is already queued or running joins the existing
//!   [`CellJob`] instead of queueing a second compute — N clients
//!   submitting the same cold grid compute each cell exactly once;
//! * a single **dispatcher** ([`ServeCore::run_dispatcher`], one
//!   dedicated thread) drains the queue in batches and executes them
//!   through [`Engine::run_where`], which fans the batch out on the
//!   harness's self-scheduling pool and settles hits from the shared
//!   memo store;
//! * [`ServeCore::drain`] implements graceful shutdown: admission stops
//!   ([`SubmitError::Draining`]), queued and running work finishes, and
//!   the dispatcher exits.
//!
//! Completion is broadcast per job via a `Mutex`+`Condvar` pair, so any
//! number of connection handlers can wait on the same cell.

use crate::protocol::{StatsSnapshot, WireTraceEvent};
use bsched_harness::{CellResult, Engine, ExperimentCell};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Serving-core tunables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum unique jobs waiting in the admission queue. A submit
    /// that would exceed this is rejected whole.
    pub queue_limit: usize,
    /// Maximum cells the dispatcher hands to the engine per batch.
    pub batch_max: usize,
    /// Capture `bsched-trace` events per executed cell and attach them
    /// to jobs so `submit(trace: true)` requests can stream them.
    pub stream_traces: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_limit: 1024,
            batch_max: 64,
            stream_traces: false,
        }
    }
}

/// One deduplicated unit of serving work, shared by every client
/// waiting on it.
#[derive(Debug)]
pub struct CellJob {
    cell: ExperimentCell,
    verify: bool,
    state: Mutex<JobState>,
    done: Condvar,
}

#[derive(Debug, Default)]
struct JobState {
    outcome: Option<Result<CellResult, String>>,
    trace: Vec<WireTraceEvent>,
}

impl CellJob {
    /// The cell this job computes.
    #[must_use]
    pub fn cell(&self) -> &ExperimentCell {
        &self.cell
    }

    /// Blocks until the job completes; returns the outcome and any
    /// captured trace events.
    ///
    /// # Panics
    ///
    /// Panics if the job mutex is poisoned (a dispatcher panic).
    pub fn wait(&self) -> (Result<CellResult, String>, Vec<WireTraceEvent>) {
        let mut st = self.state.lock().expect("job poisoned");
        while st.outcome.is_none() {
            st = self.done.wait(st).expect("job poisoned");
        }
        (st.outcome.clone().expect("checked above"), st.trace.clone())
    }

    fn finish(&self, outcome: Result<CellResult, String>, trace: Vec<WireTraceEvent>) {
        let mut st = self.state.lock().expect("job poisoned");
        st.outcome = Some(outcome);
        st.trace = trace;
        drop(st);
        self.done.notify_all();
    }
}

/// Why a submit was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is full; nothing was queued.
    Overloaded {
        /// Queue depth at rejection time.
        queued: u64,
        /// The configured limit.
        limit: u64,
    },
    /// The server is draining for shutdown.
    Draining,
}

/// What an admitted submit got.
#[derive(Debug)]
pub struct SubmitOutcome {
    /// One job per submitted cell, in request order. Duplicates within
    /// the request and cells already in flight share `Arc`s.
    pub jobs: Vec<Arc<CellJob>>,
    /// Jobs newly queued by this submit.
    pub new_jobs: u64,
    /// Cells that joined an already in-flight job.
    pub joined_inflight: u64,
}

#[derive(Default)]
struct QueueState {
    queue: VecDeque<Arc<CellJob>>,
    /// Queued *and* running jobs, keyed by `canonical_key#verify`.
    /// Entries leave only when the job finishes, so any concurrent
    /// request for the same cell joins rather than recomputes.
    inflight: HashMap<String, Arc<CellJob>>,
    dispatcher_parked: bool,
}

#[derive(Default)]
struct Counters {
    submits: AtomicU64,
    submitted_cells: AtomicU64,
    joined_inflight: AtomicU64,
    rejected_submits: AtomicU64,
    completed_cells: AtomicU64,
    failed_cells: AtomicU64,
}

/// The shared serving state: one per server process.
pub struct ServeCore {
    engine: Engine,
    cfg: ServeConfig,
    state: Mutex<QueueState>,
    /// Signals the dispatcher that work arrived or draining started.
    work: Condvar,
    /// Signals `drain` waiters that the core went idle.
    idle: Condvar,
    draining: AtomicBool,
    shutdown_requested: AtomicBool,
    counters: Counters,
}

impl ServeCore {
    /// A core over an engine (the engine brings kernels, the memo
    /// store, and the worker pool).
    #[must_use]
    pub fn new(engine: Engine, cfg: ServeConfig) -> Self {
        ServeCore {
            engine,
            cfg,
            state: Mutex::new(QueueState::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            counters: Counters::default(),
        }
    }

    /// The underlying engine (tests and stats read its report).
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The serving configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    fn job_key(cell: &ExperimentCell, verify: bool) -> String {
        // Verified and unverified requests for the same cell are
        // distinct jobs: a verifying client must not be handed a result
        // whose conformance suite never ran.
        format!("{}#v{}", cell.canonical_key(), u8::from(verify))
    }

    /// Admits a batch of cells, deduplicating against in-flight work.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when admission would exceed the
    /// queue limit (nothing is queued in that case), or
    /// [`SubmitError::Draining`] during shutdown.
    ///
    /// # Panics
    ///
    /// Panics if the core mutex is poisoned.
    pub fn submit(
        &self,
        cells: &[ExperimentCell],
        verify: bool,
    ) -> Result<SubmitOutcome, SubmitError> {
        if self.draining.load(Ordering::Acquire) {
            return Err(SubmitError::Draining);
        }
        let mut st = self.state.lock().expect("core poisoned");
        // First pass: how many genuinely new jobs would this submit
        // queue? Rejecting *before* creating anything keeps "overloaded"
        // side-effect-free.
        let mut new_keys: Vec<String> = Vec::new();
        for cell in cells {
            let key = ServeCore::job_key(cell, verify);
            if !st.inflight.contains_key(&key) && !new_keys.contains(&key) {
                new_keys.push(key);
            }
        }
        if st.queue.len() + new_keys.len() > self.cfg.queue_limit {
            self.counters
                .rejected_submits
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Overloaded {
                queued: st.queue.len() as u64,
                limit: self.cfg.queue_limit as u64,
            });
        }
        let mut jobs = Vec::with_capacity(cells.len());
        let mut new_jobs = 0u64;
        let mut joined = 0u64;
        for cell in cells {
            let key = ServeCore::job_key(cell, verify);
            if let Some(job) = st.inflight.get(&key) {
                // Already queued or running. Count a join only when the
                // job came from an *earlier* submit (jobs this request
                // created or already joined are in `jobs`).
                if !jobs.iter().any(|j| Arc::ptr_eq(j, job)) {
                    joined += 1;
                }
                jobs.push(Arc::clone(job));
                continue;
            }
            let job = Arc::new(CellJob {
                cell: cell.clone(),
                verify,
                state: Mutex::new(JobState::default()),
                done: Condvar::new(),
            });
            st.inflight.insert(key, Arc::clone(&job));
            st.queue.push_back(Arc::clone(&job));
            jobs.push(job);
            new_jobs += 1;
        }
        drop(st);
        self.counters.submits.fetch_add(1, Ordering::Relaxed);
        self.counters
            .submitted_cells
            .fetch_add(cells.len() as u64, Ordering::Relaxed);
        self.counters
            .joined_inflight
            .fetch_add(joined, Ordering::Relaxed);
        self.work.notify_all();
        Ok(SubmitOutcome {
            jobs,
            new_jobs,
            joined_inflight: joined,
        })
    }

    /// Runs the dispatcher loop until [`ServeCore::drain`] completes.
    /// Call exactly once, on a dedicated thread.
    ///
    /// # Panics
    ///
    /// Panics if the core mutex is poisoned.
    pub fn run_dispatcher(&self) {
        loop {
            let batch: Vec<Arc<CellJob>> = {
                let mut st = self.state.lock().expect("core poisoned");
                loop {
                    if !st.queue.is_empty() {
                        break;
                    }
                    if self.draining.load(Ordering::Acquire) {
                        st.dispatcher_parked = true;
                        drop(st);
                        self.idle.notify_all();
                        return;
                    }
                    st = self.work.wait(st).expect("core poisoned");
                }
                // Drain a batch of jobs sharing one verify flag (the
                // engine verifies per batch).
                let verify = st.queue.front().expect("nonempty").verify;
                let mut batch = Vec::new();
                while batch.len() < self.cfg.batch_max {
                    match st.queue.front() {
                        Some(job) if job.verify == verify => {
                            batch.push(st.queue.pop_front().expect("nonempty"));
                        }
                        _ => break,
                    }
                }
                batch
            };
            self.execute_batch(&batch);
            // Jobs leave the inflight map only now, after completion —
            // a submit arriving mid-execution joins the running job.
            {
                let mut st = self.state.lock().expect("core poisoned");
                for job in &batch {
                    st.inflight
                        .remove(&ServeCore::job_key(&job.cell, job.verify));
                }
                if st.queue.is_empty() && st.inflight.is_empty() {
                    self.idle.notify_all();
                }
            }
        }
    }

    fn execute_batch(&self, batch: &[Arc<CellJob>]) {
        debug_assert!(!batch.is_empty());
        let verify = batch[0].verify;
        let cells: Vec<ExperimentCell> = batch.iter().map(|j| j.cell.clone()).collect();
        let trace_guard = if self.cfg.stream_traces {
            // Start from a clean collector so drained events belong to
            // this batch (the dispatcher is the only drainer), and turn
            // recording on for the batch's pool workers.
            let _ = bsched_trace::drain();
            Some(bsched_trace::enable_scope())
        } else {
            None
        };
        let outcomes = self.engine.run_where(&cells, verify);
        drop(trace_guard);
        let mut trace_by_label: HashMap<String, Vec<WireTraceEvent>> = HashMap::new();
        if self.cfg.stream_traces {
            // An event belongs to the `harness.cell` span on its thread
            // whose window contains it: pass, compile and sim events
            // carry a pass, kernel or function label, not the cell's.
            let events = bsched_trace::drain();
            let cells: Vec<&bsched_trace::Event> = events
                .iter()
                .filter(|e| e.id == bsched_trace::points::HARNESS_CELL)
                .collect();
            for event in &events {
                let owner = cells.iter().find(|c| {
                    c.tid == event.tid
                        && c.ts_ns <= event.ts_ns
                        && event.ts_ns + event.dur_ns <= c.ts_ns + c.dur_ns
                });
                if let Some(cell) = owner {
                    trace_by_label
                        .entry(cell.label.clone())
                        .or_default()
                        .push(WireTraceEvent::from_event(event));
                }
            }
        }
        // Each job gets its own cell's outcome: a failing neighbour in
        // the batch neither fails it nor makes it run again.
        for (job, outcome) in batch.iter().zip(outcomes) {
            let counter = match outcome {
                Ok(_) => &self.counters.completed_cells,
                Err(_) => &self.counters.failed_cells,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            let trace = trace_by_label
                .remove(&job.cell.to_string())
                .unwrap_or_default();
            job.finish(outcome.map_err(|e| e.to_string()), trace);
        }
    }

    /// Marks the server as shutting down (set by a `shutdown` request;
    /// the accept loop polls this).
    pub fn request_shutdown(&self) {
        self.shutdown_requested.store(true, Ordering::Release);
    }

    /// Whether a client asked for shutdown.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested.load(Ordering::Acquire)
    }

    /// Graceful drain: stops admission, waits for every queued and
    /// running job to finish and for the dispatcher to park.
    ///
    /// # Panics
    ///
    /// Panics if the core mutex is poisoned.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Release);
        self.work.notify_all();
        let mut st = self.state.lock().expect("core poisoned");
        while !(st.queue.is_empty() && st.inflight.is_empty() && st.dispatcher_parked) {
            // The dispatcher only parks from its queue-wait loop, so
            // keep nudging it in case it was between batches.
            self.work.notify_all();
            let (guard, _timeout) = self
                .idle
                .wait_timeout(st, std::time::Duration::from_millis(50))
                .expect("core poisoned");
            st = guard;
        }
    }

    /// A counter snapshot for the `stats` frame.
    ///
    /// # Panics
    ///
    /// Panics if the core mutex is poisoned.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        let queue_depth = self.state.lock().expect("core poisoned").queue.len() as u64;
        let report = self.engine.report();
        StatsSnapshot {
            submits: self.counters.submits.load(Ordering::Relaxed),
            submitted_cells: self.counters.submitted_cells.load(Ordering::Relaxed),
            joined_inflight: self.counters.joined_inflight.load(Ordering::Relaxed),
            rejected_submits: self.counters.rejected_submits.load(Ordering::Relaxed),
            completed_cells: self.counters.completed_cells.load(Ordering::Relaxed),
            failed_cells: self.counters.failed_cells.load(Ordering::Relaxed),
            queue_depth,
            queue_limit: self.cfg.queue_limit as u64,
            executed: report.executed,
            memory_hits: report.memory_hits,
            disk_hits: 0,
            requested: report.requested,
            verified: report.verified,
            store_hits: self.engine.store().hit_count(),
            store_misses: self.engine.store().miss_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_harness::EngineConfig;
    use bsched_pipeline::{CompileOptions, SchedulerKind};

    fn small_engine() -> Engine {
        Engine::with_standard_kernels(EngineConfig::default().with_jobs(2))
    }

    fn cells(n: usize) -> Vec<ExperimentCell> {
        // n distinct cheap cells over one kernel.
        (0..n)
            .map(|i| {
                let mut o = CompileOptions::new(SchedulerKind::Balanced);
                o.weight_cap = 10 + i as u32; // distinct keys, same work
                ExperimentCell::new("TRFD", o)
            })
            .collect()
    }

    #[test]
    fn overload_rejects_whole_submit_without_side_effects() {
        let core = ServeCore::new(
            small_engine(),
            ServeConfig {
                queue_limit: 4,
                ..ServeConfig::default()
            },
        );
        // Dispatcher not running: the queue cannot drain.
        let err = core.submit(&cells(5), false).unwrap_err();
        assert_eq!(
            err,
            SubmitError::Overloaded {
                queued: 0,
                limit: 4
            }
        );
        assert_eq!(core.stats().queue_depth, 0, "rejection must queue nothing");
        assert_eq!(core.stats().rejected_submits, 1);
        // A submit inside the limit is admitted.
        let ok = core.submit(&cells(4), false).unwrap();
        assert_eq!(ok.new_jobs, 4);
        assert_eq!(core.stats().queue_depth, 4);
        // And the next one overflows (4 + 1 > 4).
        assert!(matches!(
            core.submit(&cells(5), false),
            Err(SubmitError::Overloaded {
                queued: 4,
                limit: 4
            })
        ));
    }

    #[test]
    fn inflight_submits_dedup_and_all_waiters_complete() {
        let core = Arc::new(ServeCore::new(small_engine(), ServeConfig::default()));
        let grid = cells(6);
        // Two submits of the same grid before the dispatcher starts:
        // the second must join every job of the first.
        let a = core.submit(&grid, false).unwrap();
        let b = core.submit(&grid, false).unwrap();
        assert_eq!(a.new_jobs, 6);
        assert_eq!(a.joined_inflight, 0);
        assert_eq!(b.new_jobs, 0);
        assert_eq!(b.joined_inflight, 6);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert!(Arc::ptr_eq(x, y), "same cell must share one job");
        }

        let dispatcher = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.run_dispatcher())
        };
        for job in a.jobs.iter().chain(&b.jobs) {
            let (outcome, _) = job.wait();
            assert!(outcome.is_ok(), "{outcome:?}");
        }
        // Each cell computed exactly once despite two submitters.
        assert_eq!(core.engine().report().executed, 6);
        assert_eq!(core.stats().joined_inflight, 6);
        core.drain();
        dispatcher.join().unwrap();
    }

    #[test]
    fn duplicate_cells_within_one_submit_share_a_job() {
        let core = ServeCore::new(small_engine(), ServeConfig::default());
        let c = cells(1);
        let doubled = vec![c[0].clone(), c[0].clone(), c[0].clone()];
        let out = core.submit(&doubled, false).unwrap();
        assert_eq!(out.new_jobs, 1);
        assert_eq!(out.jobs.len(), 3);
        assert!(Arc::ptr_eq(&out.jobs[0], &out.jobs[1]));
        assert_eq!(core.stats().queue_depth, 1);
    }

    #[test]
    fn verified_and_unverified_requests_are_distinct_jobs() {
        let core = ServeCore::new(small_engine(), ServeConfig::default());
        let c = cells(1);
        let plain = core.submit(&c, false).unwrap();
        let verified = core.submit(&c, true).unwrap();
        assert!(!Arc::ptr_eq(&plain.jobs[0], &verified.jobs[0]));
        assert_eq!(verified.new_jobs, 1);
    }

    #[test]
    fn drain_rejects_new_submits_and_finishes_queued_work() {
        let core = Arc::new(ServeCore::new(small_engine(), ServeConfig::default()));
        let out = core.submit(&cells(3), false).unwrap();
        let dispatcher = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.run_dispatcher())
        };
        core.drain();
        assert!(matches!(
            core.submit(&cells(1), false),
            Err(SubmitError::Draining)
        ));
        for job in &out.jobs {
            let (outcome, _) = job.wait();
            assert!(outcome.is_ok(), "queued work must finish during drain");
        }
        dispatcher.join().unwrap();
    }

    /// An `add` that writes a float register: rejected by the IR
    /// verifier, so every compile of it fails.
    fn malformed() -> bsched_ir::Program {
        use bsched_ir::{Function, Inst, Op, Program, RegClass};
        let mut p = Program::new("bad");
        let mut f = Function::new("main");
        let i = f.new_reg(RegClass::Int);
        let x = f.new_reg(RegClass::Float);
        let e = f.entry();
        let mut bad = Inst::op(Op::Add, i, &[i, i]);
        bad.dst = Some(x);
        f.block_mut(e).insts.push(bad);
        p.set_main(f);
        p
    }

    #[test]
    fn a_failing_cell_fails_alone_and_nothing_runs_twice() {
        let trfd = bsched_pipeline::resolve_kernel("TRFD").unwrap();
        let engine = Engine::new(
            vec![("TRFD".to_string(), trfd), ("bad".to_string(), malformed())],
            EngineConfig::default().with_jobs(2),
        );
        let core = Arc::new(ServeCore::new(engine, ServeConfig::default()));
        let good = cells(2);
        let bad = ExperimentCell::new("bad", CompileOptions::new(SchedulerKind::Balanced));
        // Queued before the dispatcher starts, so all three run as one
        // engine batch.
        let out = core
            .submit(&[good[0].clone(), bad, good[1].clone()], false)
            .unwrap();
        let dispatcher = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.run_dispatcher())
        };
        let outcomes: Vec<_> = out.jobs.iter().map(|job| job.wait().0).collect();
        assert!(outcomes[0].is_ok(), "{:?}", outcomes[0]);
        assert!(
            outcomes[1].as_ref().is_err_and(|e| e.contains("bad/BS")),
            "{:?}",
            outcomes[1]
        );
        assert!(outcomes[2].is_ok(), "{:?}", outcomes[2]);
        assert_eq!(core.engine().report().executed, 3, "no cell re-ran");
        let stats = core.stats();
        assert_eq!((stats.completed_cells, stats.failed_cells), (2, 1));
        core.drain();
        dispatcher.join().unwrap();
    }
}
