//! `bsched-bench` — shared plumbing for the table/figure regeneration
//! binaries and the `sampling` microbench.
//!
//! The [`Grid`] wraps the [`bsched_harness::Engine`]: every lookup is
//! answered from the engine's memoized store, and binaries call
//! [`Grid::prefetch`] up front so the whole deduplicated cell set runs
//! in parallel on the work-stealing pool (with the on-disk cache making
//! warm re-runs nearly free).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod microbench;

use bsched_harness::{Engine, EngineConfig, ExperimentCell, RunReport};
use bsched_pipeline::{CompileOptions, ConfigKind, ExperimentConfig, SchedulerKind};
use bsched_sim::{MachineSpec, SimConfig, SimMetrics};
use std::fmt::Write as _;

/// A harness-backed grid runner over the 17-kernel workload.
pub struct Grid {
    engine: Engine,
    machine: Option<MachineSpec>,
}

impl Default for Grid {
    fn default() -> Self {
        Self::new()
    }
}

impl Grid {
    /// Lowers every kernel once and configures the engine from the
    /// environment (`BSCHED_JOBS`, `BSCHED_NO_CACHE`, `BSCHED_CACHE_DIR`,
    /// and `BSCHED_MACHINE` — see [`Grid::with_machine`]).
    ///
    /// A malformed `BSCHED_MACHINE` reports the shared spec-grammar
    /// error and exits with status 2, like every other env knob.
    #[must_use]
    pub fn new() -> Self {
        let machine = MachineSpec::from_env()
            .unwrap_or_else(|e| bsched_util::spec::exit2("BSCHED_MACHINE", &e));
        Grid {
            engine: Engine::with_standard_kernels(EngineConfig::from_env()),
            machine,
        }
    }

    /// A grid over an explicit engine (tests use this to control the
    /// worker count and cache directory). No machine override.
    #[must_use]
    pub fn with_engine(engine: Engine) -> Self {
        Grid {
            engine,
            machine: None,
        }
    }

    /// Re-targets the grid at `machine`: every configuration that does
    /// not explicitly pick a non-default machine runs on it instead of
    /// the paper's `alpha21164`. Configurations whose options already
    /// set a custom `sim` (machine-sweep binaries like `superscalar`)
    /// keep their explicit choice.
    #[must_use]
    pub fn with_machine(mut self, machine: MachineSpec) -> Self {
        self.machine = Some(machine);
        self
    }

    /// The machine override, when one is active (from
    /// [`Grid::with_machine`] or `BSCHED_MACHINE`).
    #[must_use]
    pub fn machine(&self) -> Option<&MachineSpec> {
        self.machine.as_ref()
    }

    /// Applies the machine override to one option set: default-machine
    /// options are re-targeted, explicitly-machined options pass through.
    #[must_use]
    pub fn resolve_options(&self, o: &CompileOptions) -> CompileOptions {
        match &self.machine {
            Some(m) if o.sim == SimConfig::alpha21164() => o.with_sim(m.config()),
            _ => *o,
        }
    }

    /// The underlying engine.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The kernel names, in paper order.
    #[must_use]
    pub fn kernel_names(&self) -> Vec<String> {
        self.engine.kernel_names()
    }

    /// Runs the full (kernel × configuration) product through the engine
    /// in one parallel batch. Call this before the serial table-formatting
    /// loops so every cell is computed on the pool rather than one by one.
    ///
    /// # Panics
    ///
    /// Panics if any cell fails — the workload is expected to compile
    /// under every configuration.
    pub fn prefetch(&self, configs: &[ExperimentConfig]) {
        let opts: Vec<CompileOptions> = configs.iter().map(ExperimentConfig::options).collect();
        self.prefetch_options(&opts);
    }

    /// Like [`Grid::prefetch`] for raw compile options (the §5.5 and
    /// superscalar studies build options directly).
    ///
    /// # Panics
    ///
    /// Panics if any cell fails.
    pub fn prefetch_options(&self, opts: &[CompileOptions]) {
        let mut cells = Vec::with_capacity(self.kernel_names().len() * opts.len());
        for kernel in self.kernel_names() {
            for o in opts {
                cells.push(ExperimentCell::new(&kernel, self.resolve_options(o)));
            }
        }
        self.prefetch_cells(&cells);
    }

    /// Runs an explicit cell set in one parallel batch (for studies over
    /// a kernel subset, like §5.5).
    ///
    /// # Panics
    ///
    /// Panics if any cell fails.
    pub fn prefetch_cells(&self, cells: &[ExperimentCell]) {
        self.engine
            .run(cells)
            .unwrap_or_else(|e| panic!("experiment grid failed: {e}"));
    }

    /// Runs (memoized) one kernel under one configuration.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline fails — the workload is expected to compile
    /// under every configuration.
    pub fn metrics(&self, kernel: &str, config: ExperimentConfig) -> SimMetrics {
        self.metrics_for(kernel, &config.options())
    }

    /// Runs (memoized) one kernel under raw compile options.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline fails.
    pub fn metrics_for(&self, kernel: &str, opts: &CompileOptions) -> SimMetrics {
        let cell = ExperimentCell::new(kernel, self.resolve_options(opts));
        self.engine.metrics(&cell).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Convenience: balanced-scheduling metrics for a configuration kind.
    #[must_use]
    pub fn bs(&self, kernel: &str, kind: ConfigKind) -> SimMetrics {
        self.metrics(
            kernel,
            ExperimentConfig {
                scheduler: SchedulerKind::Balanced,
                kind,
            },
        )
    }

    /// Convenience: traditional-scheduling metrics for a configuration
    /// kind.
    #[must_use]
    pub fn ts(&self, kernel: &str, kind: ConfigKind) -> SimMetrics {
        self.metrics(
            kernel,
            ExperimentConfig {
                scheduler: SchedulerKind::Traditional,
                kind,
            },
        )
    }

    /// The engine's run report (printed to stderr by the binaries so
    /// stdout stays byte-deterministic).
    #[must_use]
    pub fn report(&self) -> RunReport {
        self.engine.report()
    }
}

/// Renders the `all_experiments` table: a header, then one line per
/// kernel × configuration, kernels outermost, with `metrics` supplying
/// each cell's numbers. `csv` selects the comma-separated form.
/// `bsched-client grid` prints through the same function, so the served
/// table is the direct one byte for byte.
pub fn render_grid(
    kernels: &[String],
    configs: &[ExperimentConfig],
    csv: bool,
    mut metrics: impl FnMut(&str, ExperimentConfig) -> SimMetrics,
) -> String {
    let mut out = String::new();
    if csv {
        out.push_str(
            "kernel,config,scheduler,cycles,load_interlock,fixed_interlock,branch_penalty,\
             fetch_stall,tlb_stall,dyn_insts,loads,stores,branches,spills,l1d_hit_rate\n",
        );
    } else {
        let _ = writeln!(
            out,
            "{:10} {:12} {:>4} {:>10} {:>9} {:>9} {:>8} {:>10} {:>8}",
            "kernel",
            "config",
            "sch",
            "cycles",
            "loadIL",
            "fixedIL",
            "branch",
            "dyninsts",
            "spills"
        );
    }
    for kernel in kernels {
        for cfg in configs {
            let m = metrics(kernel, *cfg);
            let _ = if csv {
                writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.4}",
                    kernel,
                    cfg.kind.label().replace(' ', ""),
                    cfg.scheduler.label(),
                    m.cycles,
                    m.load_interlock,
                    m.fixed_interlock,
                    m.branch_penalty,
                    m.fetch_stall,
                    m.tlb_stall,
                    m.insts.total(),
                    m.insts.loads,
                    m.insts.stores,
                    m.insts.branches,
                    m.insts.spills,
                    m.mem.l1d_hit_rate(),
                )
            } else {
                writeln!(
                    out,
                    "{:10} {:12} {:>4} {:>10} {:>9} {:>9} {:>8} {:>10} {:>8}",
                    kernel,
                    cfg.kind.label(),
                    cfg.scheduler.label(),
                    m.cycles,
                    m.load_interlock,
                    m.fixed_interlock,
                    m.branch_penalty,
                    m.insts.total(),
                    m.insts.spills
                )
            };
        }
    }
    out
}

/// Writes a `--csv` table to `results/{name}` as well as stdout. A
/// failed write is reported on stderr, not fatal: the table is already
/// on stdout.
pub fn write_results(name: &str, csv: &str) {
    let path = std::path::Path::new("results").join(name);
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, csv)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Percentage decrease from `from` to `to` (positive = improvement).
#[must_use]
pub fn pct_decrease(from: u64, to: u64) -> f64 {
    if from == 0 {
        0.0
    } else {
        (from as f64 - to as f64) / from as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_grid() -> Grid {
        let config = EngineConfig {
            jobs: 1,
            disk_cache: false,
            ..EngineConfig::default()
        };
        Grid::with_engine(Engine::with_standard_kernels(config))
    }

    #[test]
    fn machine_override_retargets_default_options_only() {
        let wide: MachineSpec = "wide4".parse().unwrap();
        let grid = quiet_grid().with_machine(wide.clone());
        // Default-machine options follow the override.
        let o = CompileOptions::new(SchedulerKind::Balanced);
        assert_eq!(grid.resolve_options(&o).sim, wide.config());
        // Explicitly-machined options keep their choice.
        let explicit = o.with_sim(SimConfig::default().with_mshrs(1));
        assert_eq!(grid.resolve_options(&explicit).sim.mem.mshrs, 1);
        // No override: options pass through untouched.
        let plain = quiet_grid();
        assert_eq!(plain.resolve_options(&o).sim, SimConfig::alpha21164());
        assert!(plain.machine().is_none());
    }
}
