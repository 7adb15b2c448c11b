//! The experiment-execution engine: deduplication, memoization, and
//! parallel dispatch.

use crate::cell::ExperimentCell;
use crate::pool;
use crate::report::{CellTiming, RunReport};
use crate::store::ResultStore;
use bsched_ir::Program;
use bsched_pipeline::{CompileOptions, Experiment, RunResult, Source};
use bsched_sim::{SampleConfig, SimMetrics, SimMode};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The memoized outcome of one cell: the simulator metrics plus the
/// record that the interpreter cross-check passed when the cell was
/// computed (memoized cells do not re-run the check — they record it).
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Timing metrics of the simulated run.
    pub metrics: SimMetrics,
    /// Whether the compiled program's memory image matched the reference
    /// interpreter's. The engine refuses to serve `false`.
    pub checksum_ok: bool,
    /// Whether the `bsched-verify` conformance suite (schedule legality,
    /// weight cross-check, differential replay, metamorphic invariants)
    /// passed when this result was computed. A verifying run treats a
    /// memoized result with `verified == false` as a miss.
    pub verified: bool,
}

/// Engine failures.
#[derive(Debug, Clone)]
pub enum HarnessError {
    /// A cell referenced a kernel the engine does not know.
    UnknownKernel(String),
    /// A cell failed to compile/simulate, or diverged from the
    /// reference interpreter.
    Cell {
        /// `kernel/label` of the failing cell.
        cell: String,
        /// The underlying failure.
        msg: String,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::UnknownKernel(k) => write!(f, "unknown kernel {k:?}"),
            HarnessError::Cell { cell, msg } => write!(f, "cell {cell} failed: {msg}"),
        }
    }
}

impl std::error::Error for HarnessError {}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads for cells that miss the memo store.
    pub jobs: usize,
    /// Whether every executed cell runs the `bsched-verify` conformance
    /// suite. Violations fail the run; memoized results that were not
    /// verified when computed are recomputed.
    pub verify: bool,
    /// Whether cells run exactly or sampled ([`SimMode`]). Like tracing
    /// this is an execution detail, never part of a cell key — but
    /// unlike tracing it is *not* metrics-invariant. The mode is fixed
    /// for an engine's lifetime, so its store holds results of that
    /// mode only.
    pub sim_mode: SimMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: default_jobs(),
            verify: false,
            sim_mode: SimMode::Exact,
        }
    }
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl EngineConfig {
    /// Reads the environment:
    ///
    /// * `BSCHED_JOBS=<n>` — worker count (default:
    ///   `available_parallelism()`),
    /// * `BSCHED_VERIFY=1` — run the conformance suite on every
    ///   executed cell,
    /// * `BSCHED_SAMPLE=<spec>` — sampled execution mode; `1`/`on`/
    ///   `default` for the default [`SampleConfig`], or a spec like
    ///   `k=8,interval=1000` (`0`/`off`/`false` keep exact mode).
    ///
    /// Invalid values exit the process with code 2 and a clear message
    /// rather than degrading silently — a typo'd `BSCHED_JOBS=32x` on a
    /// long grid run must fail loudly, not crawl along single-threaded.
    /// Library callers who need to handle the error themselves use
    /// [`EngineConfig::try_from_env`].
    #[must_use]
    pub fn from_env() -> Self {
        match EngineConfig::try_from_env() {
            Ok(cfg) => cfg,
            Err(msg) => {
                eprintln!("bsched-harness: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// [`EngineConfig::from_env`] without the exit: invalid settings
    /// come back as an error message naming the variable and the
    /// offending value.
    ///
    /// # Errors
    ///
    /// `BSCHED_JOBS` that is not a positive integer, or a
    /// `BSCHED_SAMPLE` that parses as neither a sampling spec nor an off
    /// switch.
    pub fn try_from_env() -> Result<Self, String> {
        let mut cfg = EngineConfig::default();
        if let Ok(v) = std::env::var("BSCHED_JOBS") {
            match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => cfg.jobs = n,
                _ => {
                    return Err(format!(
                        "invalid BSCHED_JOBS={v:?}: expected a positive integer worker count"
                    ))
                }
            }
        }
        if let Ok(v) = std::env::var("BSCHED_VERIFY") {
            if v == "1" || v.eq_ignore_ascii_case("true") {
                cfg.verify = true;
            }
        }
        if let Ok(v) = std::env::var("BSCHED_SAMPLE") {
            match v.trim() {
                "" | "0" | "off" | "false" => {}
                spec => match spec.parse::<SampleConfig>() {
                    Ok(sample) => cfg.sim_mode = SimMode::Sampled(sample),
                    Err(e) => return Err(format!("invalid BSCHED_SAMPLE: {e}")),
                },
            }
        }
        Ok(cfg)
    }

    /// Overrides the worker count.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Does nothing: the engine has no disk cache. It accepts and
    /// ignores `dir` so that older callers still compile; ROADMAP item 9
    /// deletes it.
    #[must_use]
    pub fn with_cache_dir(self, _dir: PathBuf) -> Self {
        self
    }

    /// Does nothing: the engine has no disk cache. It accepts and
    /// ignores `on` so that older callers still compile; ROADMAP item 9
    /// deletes it.
    #[must_use]
    pub fn with_disk_cache(self, _on: bool) -> Self {
        self
    }

    /// Enables/disables the per-cell conformance suite.
    #[must_use]
    pub fn with_verify(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// Overrides the simulation mode.
    #[must_use]
    pub fn with_sim_mode(mut self, mode: SimMode) -> Self {
        self.sim_mode = mode;
        self
    }
}

/// The engine: kernels, memo store, pool, and report state.
pub struct Engine {
    /// One shared [`Source`] per kernel, so each kernel's reference
    /// checksum is computed once per engine, by the first cell that
    /// needs it.
    kernels: Vec<(String, Arc<Source>)>,
    index: HashMap<String, usize>,
    config: EngineConfig,
    /// Results under the configured [`SimMode`], which is fixed for the
    /// engine's lifetime.
    store: ResultStore,
    report: Mutex<RunReport>,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Engine({} kernels, {} memoized cells, {} workers)",
            self.kernels.len(),
            self.store.len(),
            self.config.jobs
        )
    }
}

impl Engine {
    /// An engine over an explicit kernel set. Nothing is verified or
    /// run here: each kernel's reference result is computed lazily.
    #[must_use]
    pub fn new(kernels: Vec<(String, Program)>, config: EngineConfig) -> Self {
        let kernels: Vec<(String, Arc<Source>)> = kernels
            .into_iter()
            .map(|(name, program)| (name, Arc::new(Source::new(program))))
            .collect();
        let index = kernels
            .iter()
            .enumerate()
            .map(|(i, (name, _))| (name.clone(), i))
            .collect();
        let sim_mode = match config.sim_mode {
            SimMode::Exact => "exact".to_string(),
            SimMode::Sampled(s) => format!("sampled({s})"),
        };
        let report = RunReport {
            workers: config.jobs,
            sim_mode,
            ..RunReport::default()
        };
        Engine {
            kernels,
            index,
            config,
            store: ResultStore::new(),
            report: Mutex::new(report),
        }
    }

    /// An engine over the paper's 17-kernel workload, each lowered once.
    #[must_use]
    pub fn with_standard_kernels(config: EngineConfig) -> Self {
        let kernels = bsched_workloads::all_kernels()
            .iter()
            .map(|k| (k.name.to_string(), k.program()))
            .collect();
        Engine::new(kernels, config)
    }

    /// The configured worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.config.jobs
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The in-memory memo layer (see [`crate::store`]), holding results
    /// under the configured [`SimMode`]. `bsched-serve` reads its
    /// hit/miss counters for warm-cache stats.
    #[must_use]
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// The shared source of a kernel, as every cell of that kernel
    /// sees it.
    #[must_use]
    pub fn source(&self, kernel: &str) -> Option<&Arc<Source>> {
        self.index.get(kernel).map(|&i| &self.kernels[i].1)
    }

    /// Kernel names, in workload order.
    #[must_use]
    pub fn kernel_names(&self) -> Vec<String> {
        self.kernels.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Ensures every requested cell has a result, executing the
    /// deduplicated memo misses on the [`crate::pool`], one job per
    /// group of misses that differ only in the simulated machine.
    ///
    /// # Errors
    ///
    /// Fails on unknown kernels, pipeline errors, or an interpreter
    /// cross-check divergence (a simulator/compiler bug, not a
    /// measurement). The first failing cell in request order is
    /// reported; every cell that succeeded is stored all the same.
    pub fn run(&self, cells: &[ExperimentCell]) -> Result<(), HarnessError> {
        self.run_where(cells, self.config.verify)
            .into_iter()
            .find_map(Result::err)
            .map_or(Ok(()), Err)
    }

    /// [`Engine::run`] with an explicit per-batch verification switch,
    /// overriding [`EngineConfig::verify`], returning each requested
    /// cell's own outcome in request order. Every success is stored, so
    /// a failing cell costs its neighbours nothing. `bsched-serve` uses
    /// this to honour a per-request `verify` flag against one shared
    /// engine and to answer each client with its own cell's fate.
    pub fn run_where(
        &self,
        cells: &[ExperimentCell],
        verify: bool,
    ) -> Vec<Result<CellResult, HarnessError>> {
        // Deduplicate within the batch, preserving request order:
        // `slot[i]` is cell i's index in `unique`.
        let mut unique: Vec<&ExperimentCell> = Vec::with_capacity(cells.len());
        let mut slot: Vec<usize> = Vec::with_capacity(cells.len());
        {
            let mut seen = HashMap::with_capacity(cells.len());
            for cell in cells {
                let u = *seen
                    .entry((cell.kernel(), cell.options()))
                    .or_insert_with(|| {
                        unique.push(cell);
                        unique.len() - 1
                    });
                slot.push(u);
            }
        }
        let mut batch = RunReport {
            requested: cells.len() as u64,
            deduplicated: (cells.len() - unique.len()) as u64,
            ..RunReport::default()
        };
        let mut outcomes: Vec<Option<Result<CellResult, HarnessError>>> = vec![None; unique.len()];

        // The memo store first. A verifying run only accepts memoized
        // results whose conformance suite passed at compute time;
        // anything else is recomputed (and re-verified) as a miss.
        let store = &self.store;
        let mut misses: Vec<usize> = Vec::new();
        for (u, &cell) in unique.iter().enumerate() {
            if self.source(cell.kernel()).is_none() {
                outcomes[u] = Some(Err(HarnessError::UnknownKernel(cell.kernel().to_string())));
                continue;
            }
            match store.get(cell).filter(|r| !verify || r.verified) {
                Some(r) => {
                    batch.memory_hits += 1;
                    batch.verified += u64::from(verify);
                    outcomes[u] = Some(Ok(r));
                }
                None => misses.push(u),
            }
        }

        // Then execute the misses in parallel, one pool job per
        // compile. Cells that differ only in the simulated machine share
        // a compile key; their job compiles once and simulates each
        // member on its own machine. Outcomes are scattered back by
        // index, and every success is stored.
        if !misses.is_empty() {
            let missed: Vec<&ExperimentCell> = misses.iter().map(|&u| unique[u]).collect();
            let groups = compile_groups(&missed);
            let (results, stats) = pool::run_jobs(self.config.jobs, groups.len(), |g| {
                let members: Vec<&ExperimentCell> = groups[g].iter().map(|&i| missed[i]).collect();
                self.execute_group(&members, verify)
            });
            batch.pool_wall = stats.wall;
            batch.worker_busy = stats.busy;
            batch.compiles = groups.len() as u64;
            let mut by_cell: Vec<_> = groups
                .iter()
                .flatten()
                .zip(results.into_iter().flatten())
                .collect();
            by_cell.sort_unstable_by_key(|&(&i, _)| i);
            for (&u, (_, (outcome, wall))) in misses.iter().zip(by_cell) {
                let cell = unique[u];
                batch.cell_timings.push(CellTiming {
                    cell: cell.to_string(),
                    wall,
                });
                if let Ok(result) = &outcome {
                    batch.verified += u64::from(result.verified);
                    store.insert(cell, result.clone());
                }
                outcomes[u] = Some(outcome);
            }
        }
        self.update_report(batch);
        slot.into_iter()
            .map(|u| {
                outcomes[u]
                    .clone()
                    .expect("every unique cell has an outcome")
            })
            .collect()
    }

    /// The memoized result for a cell, if present.
    #[must_use]
    pub fn result(&self, cell: &ExperimentCell) -> Option<CellResult> {
        self.store.get(cell)
    }

    /// The metrics for a cell, computing it (and anything it needs) on
    /// demand when missing.
    ///
    /// # Errors
    ///
    /// Propagates [`HarnessError`]s from execution.
    pub fn metrics(&self, cell: &ExperimentCell) -> Result<SimMetrics, HarnessError> {
        if let Some(r) = self.store.get(cell) {
            return Ok(r.metrics);
        }
        self.run_where(std::slice::from_ref(cell), self.config.verify)
            .pop()
            .expect("one outcome per cell")
            .map(|r| r.metrics)
    }

    /// A snapshot of the run report.
    #[must_use]
    pub fn report(&self) -> RunReport {
        self.report.lock().expect("report poisoned").clone()
    }

    /// Folds a fuzzing campaign's iteration count into the run report
    /// (the binaries run the `bsched-verify` fuzzer alongside a
    /// verifying grid sweep and report both through one channel).
    pub fn record_fuzz(&self, iterations: u64) {
        self.report.lock().expect("report poisoned").fuzz_iterations += iterations;
    }

    /// Runs one compile group: compiles the first member's options once
    /// and simulates every member on its own machine, each under its own
    /// `harness.cell` span and timing (the first member's includes the
    /// compile). The compiled program is dropped when this returns.
    fn execute_group(
        &self,
        cells: &[&ExperimentCell],
        verify: bool,
    ) -> Vec<(Result<CellResult, HarnessError>, Duration)> {
        let first = cells[0];
        let source = &self.kernels[self.index[first.kernel()]].1;
        let session = Experiment::builder()
            .source(first.kernel(), Arc::clone(source))
            .compile_options(*first.options())
            .sim_mode(self.config.sim_mode)
            .build()
            .expect("a session over a supplied source always builds");
        let mut runs = session.run_on(cells.iter().map(|c| c.options().sim));
        cells
            .iter()
            .enumerate()
            .map(|(k, &cell)| {
                let t0 = Instant::now();
                let span = bsched_trace::span(bsched_trace::points::HARNESS_CELL)
                    .label_with(|| cell.to_string());
                let run = runs.next().expect("one run per member");
                // Every member carries the compile's statistics; the
                // report counts its exact search once.
                if let (0, Ok(run)) = (k, &run) {
                    if run.compile.exact.regions > 0 {
                        let mut r = self.report.lock().expect("report poisoned");
                        r.exact.merge(&run.compile.exact);
                    }
                }
                let outcome = run
                    .map_err(|e| cell_error(cell, e.to_string()))
                    .and_then(|run| self.check(cell, run, verify));
                span.finish(&[]);
                // Workers flush per cell so a drain on the coordinating
                // thread sees every event even while the pool is alive.
                bsched_trace::flush_thread();
                (outcome, t0.elapsed())
            })
            .collect()
    }

    /// One member's checks after its run: the simulator-vs-reference
    /// checksum, the sampling tallies and, when `verify`, the
    /// conformance suite.
    fn check(
        &self,
        cell: &ExperimentCell,
        run: RunResult,
        verify: bool,
    ) -> Result<CellResult, HarnessError> {
        if !run.checksum_ok {
            return Err(cell_error(
                cell,
                "simulator diverged from the reference interpreter".to_string(),
            ));
        }
        if let Some(stats) = run.sample {
            let mut r = self.report.lock().expect("report poisoned");
            r.sample_intervals += stats.intervals;
            r.sample_clusters += stats.clusters;
            r.sampled_insts += stats.sampled_insts;
            r.sample_total_insts += stats.total_insts;
        }
        let verified = if verify {
            // A sampled cell's estimates cannot be judged against exact
            // metamorphic identities; its suite instead replays the cell
            // exactly and bounds the estimation error.
            let v = bsched_verify::verify_cell_in(
                self.config.sim_mode,
                &self.kernels[self.index[cell.kernel()]].1,
                cell.options(),
                &run.metrics,
            );
            if !v.is_clean() {
                let mut r = self.report.lock().expect("report poisoned");
                r.violations += v.violations.len() as u64;
                drop(r);
                return Err(cell_error(
                    cell,
                    format!(
                        "verification failed ({} violations): {}",
                        v.violations.len(),
                        v.violations.join("; ")
                    ),
                ));
            }
            true
        } else {
            false
        };
        Ok(CellResult {
            metrics: run.metrics,
            checksum_ok: true,
            verified,
        })
    }

    /// Folds one `run_where` call's counters — a [`RunReport`] holding
    /// only that call's deltas — into the engine's report.
    fn update_report(&self, batch: RunReport) {
        let mut r = self.report.lock().expect("report poisoned");
        r.requested += batch.requested;
        r.deduplicated += batch.deduplicated;
        r.memory_hits += batch.memory_hits;
        r.verified += batch.verified;
        r.executed += batch.cell_timings.len() as u64;
        r.compiles += batch.compiles;
        r.cell_timings.extend(batch.cell_timings);
        r.pool_wall += batch.pool_wall;
        if r.worker_busy.len() < batch.worker_busy.len() {
            r.worker_busy
                .resize(batch.worker_busy.len(), std::time::Duration::ZERO);
        }
        for (acc, b) in r.worker_busy.iter_mut().zip(&batch.worker_busy) {
            *acc += *b;
        }
    }
}

fn cell_error(cell: &ExperimentCell, msg: String) -> HarnessError {
    HarnessError::Cell {
        cell: cell.to_string(),
        msg,
    }
}

/// Groups cells by kernel and [`CompileOptions::compile_key`]: indices
/// into `cells`, groups in order of their first member, members in
/// request order.
fn compile_groups(cells: &[&ExperimentCell]) -> Vec<Vec<usize>> {
    let mut index: HashMap<(&str, CompileOptions), usize> = HashMap::with_capacity(cells.len());
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let key = (cell.kernel(), cell.options().compile_key());
        let g = *index.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }
    groups
}
