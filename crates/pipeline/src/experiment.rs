//! The unified `Experiment` façade — the public entry point for
//! compiling and simulating one experimental configuration.
//!
//! Everything the table/figure binaries, the harness, and downstream
//! users need funnels through one typed builder:
//!
//! ```
//! use bsched_pipeline::{ConfigKind, Experiment, SchedulerKind};
//! use bsched_sim::MachineSpec;
//!
//! let session = Experiment::builder()
//!     .kernel("TRFD")
//!     .config(ConfigKind::Lu(4))
//!     .scheduler(SchedulerKind::Balanced)
//!     .machine(MachineSpec::alpha21164())
//!     .build()
//!     .unwrap();
//! let run = session.run().unwrap();
//! assert!(run.checksum_ok);
//! ```
//!
//! The builder validates kernel names against the workload suite (an
//! unknown name errors with the list of valid choices), applies the
//! optimization configuration, and resolves the effective
//! [`CompileOptions`].
//! [`Session`] is the frozen, validated configuration; [`Session::run`]
//! compiles, simulates, and cross-checks against the reference
//! interpreter. It is [`Session::compile`] followed by
//! [`Session::simulate`], and a caller that simulates one compiled
//! program on several machines calls the two steps itself.
//!
//! A session reads its program from an `Arc<`[`Source`]`>`, which
//! computes the source's reference checksum once for every session
//! sharing it ([`ExperimentBuilder::source`]); a session built with
//! [`ExperimentBuilder::program`] or [`ExperimentBuilder::kernel`] has
//! a source of its own.

use crate::compile::{compile_impl, Compiled, PipelineError};
use crate::experiments::ConfigKind;
use crate::options::CompileOptions;
use crate::run::RunResult;
use crate::source::Source;
use bsched_core::SchedulerKind;
use bsched_ir::Program;
use bsched_sim::{MachineSpec, SimConfig, SimMode, Simulator};
use std::sync::Arc;

/// Errors raised while building a [`Session`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// The kernel name does not exist in the workload suite. Carries the
    /// full list of valid names for the error message.
    UnknownKernel {
        /// The name that failed to resolve.
        name: String,
        /// Every valid kernel name, in the paper's Table 1 order.
        valid: Vec<&'static str>,
    },
    /// None of [`ExperimentBuilder::kernel`],
    /// [`ExperimentBuilder::program`] and [`ExperimentBuilder::source`]
    /// was called.
    MissingProgram,
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::UnknownKernel { name, valid } => {
                write!(
                    f,
                    "unknown kernel '{name}'; valid kernels: {}",
                    valid.join(", ")
                )
            }
            ExperimentError::MissingProgram => {
                write!(
                    f,
                    "no program: call .kernel(name) or .program(name, program)"
                )
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Resolves a workload kernel name, or returns the
/// [`ExperimentError::UnknownKernel`] listing every valid choice.
///
/// The same validation backs `all_experiments --kernels`.
///
/// # Errors
///
/// Returns [`ExperimentError::UnknownKernel`] when the name is not in
/// the suite.
pub fn resolve_kernel(name: &str) -> Result<Program, ExperimentError> {
    match bsched_workloads::suite::kernel_by_name(name) {
        Some(spec) => Ok(spec.program()),
        None => Err(ExperimentError::UnknownKernel {
            name: name.to_string(),
            valid: bsched_workloads::suite::all_kernels()
                .iter()
                .map(|k| k.name)
                .collect(),
        }),
    }
}

/// The entry point of the experiment API: [`Experiment::builder`].
#[derive(Debug, Clone, Copy)]
pub struct Experiment;

impl Experiment {
    /// Starts building an experiment session.
    #[must_use]
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }
}

/// Typed builder for one experiment configuration. See the
/// [module docs](self) for the canonical usage.
#[derive(Debug, Clone, Default)]
pub struct ExperimentBuilder {
    kernel: Option<String>,
    source: Option<(String, Arc<Source>)>,
    config: ConfigKind,
    scheduler: SchedulerKind,
    sim: SimConfig,
    options: Option<CompileOptions>,
    trace: bool,
    sim_mode: SimMode,
}

impl ExperimentBuilder {
    /// Selects a workload-suite kernel by its paper name (validated at
    /// [`build`](Self::build) time).
    #[must_use]
    pub fn kernel(mut self, name: impl Into<String>) -> Self {
        self.kernel = Some(name.into());
        self
    }

    /// Supplies an explicit program (custom kernels). Overrides
    /// [`kernel`](Self::kernel). The session gets a [`Source`] of its
    /// own.
    #[must_use]
    pub fn program(self, name: impl Into<String>, program: Program) -> Self {
        self.source(name, Arc::new(Source::new(program)))
    }

    /// Supplies a shared [`Source`] (the harness: one per kernel).
    /// Sessions built from clones of the same `Arc` compute the
    /// source's reference checksum once between them. Overrides
    /// [`kernel`](Self::kernel).
    #[must_use]
    pub fn source(mut self, name: impl Into<String>, source: Arc<Source>) -> Self {
        self.source = Some((name.into(), source));
        self
    }

    /// Sets the optimization configuration (default:
    /// [`ConfigKind::Base`]). The paper evaluates unroll factors 4 and
    /// 8; any factor is accepted.
    #[must_use]
    pub fn config(mut self, kind: ConfigKind) -> Self {
        self.config = kind;
        self
    }

    /// Sets the load-weight policy (default: balanced).
    #[must_use]
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the machine the experiment simulates (default:
    /// [`MachineSpec::alpha21164`], the paper's machine). Accepts any
    /// registry name or spec-grammar string via
    /// [`MachineSpec`]'s `FromStr`, or a programmatic
    /// [`MachineSpec::custom`].
    #[must_use]
    pub fn machine(mut self, machine: MachineSpec) -> Self {
        self.sim = machine.config();
        self
    }

    /// Supplies fully-formed [`CompileOptions`], bypassing
    /// [`config`](Self::config), [`scheduler`](Self::scheduler) and
    /// [`machine`](Self::machine). This is how every other knob — the
    /// ablation axes (`CompileOptions::with_weight_cap`,
    /// `with_tie_break`, `without_predication`, …) and the exact
    /// search's node budget — reaches a session, and how the harness
    /// runs a cell's complete option set.
    #[must_use]
    pub fn compile_options(mut self, options: CompileOptions) -> Self {
        self.options = Some(options);
        self
    }

    /// Enables `bsched-trace` observability for this session's
    /// [`run`](Session::run), [`compile`](Session::compile) and
    /// [`simulate`](Session::simulate) calls:
    /// per-pass spans, scheduler region stats, and per-load interlock
    /// attribution, collectible with `bsched_trace::drain`.
    ///
    /// Observability only — results are byte-identical either way, and
    /// the flag is deliberately *not* part of [`CompileOptions`], so
    /// harness cells are unaffected. (Trace *scheduling*, the
    /// compiler optimization, is selected through
    /// [`config`](Self::config) instead.)
    #[must_use]
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Selects exact or sampled simulation for this session's
    /// [`run`](Session::run) and [`simulate`](Session::simulate) calls
    /// (default: [`SimMode::Exact`]).
    ///
    /// Like [`trace`](Self::trace) this is an execution axis,
    /// deliberately *not* part of [`CompileOptions`], so harness cache
    /// keys are unaffected — but unlike tracing it is **not**
    /// metrics-invariant: sampled runs estimate cycle-level metrics from
    /// representative intervals (instruction counts and the checksum
    /// stay exact), so the harness must never let sampled results into
    /// the exact-result cache.
    #[must_use]
    pub fn sim_mode(mut self, mode: SimMode) -> Self {
        self.sim_mode = mode;
        self
    }

    /// Validates the configuration and freezes it into a [`Session`].
    ///
    /// # Errors
    ///
    /// [`ExperimentError::UnknownKernel`] for a bad kernel name,
    /// [`ExperimentError::MissingProgram`] when no program was selected.
    pub fn build(self) -> Result<Session, ExperimentError> {
        let (name, source) = match (self.source, self.kernel) {
            (Some((name, source)), _) => (name, source),
            (None, Some(name)) => {
                let source = Arc::new(Source::new(resolve_kernel(&name)?));
                (name, source)
            }
            (None, None) => return Err(ExperimentError::MissingProgram),
        };
        let options = self
            .options
            .unwrap_or_else(|| self.config.options(self.scheduler).with_sim(self.sim));
        Ok(Session {
            name,
            source,
            options,
            trace: self.trace,
            sim_mode: self.sim_mode,
        })
    }
}

/// A validated, frozen experiment: one program under one full option
/// set. Created by [`ExperimentBuilder::build`].
#[derive(Debug, Clone)]
pub struct Session {
    name: String,
    source: Arc<Source>,
    options: CompileOptions,
    trace: bool,
    sim_mode: SimMode,
}

impl Session {
    /// The experiment's program name (kernel name or custom).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The source program.
    #[must_use]
    pub fn source(&self) -> &Program {
        self.source.program()
    }

    /// The resolved compile options.
    #[must_use]
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// The table label (`BS+LU4+TrS`, …) for this configuration.
    #[must_use]
    pub fn label(&self) -> String {
        self.options.label()
    }

    /// Whether this session enables `bsched-trace` observability (see
    /// [`ExperimentBuilder::trace`]).
    #[must_use]
    pub fn traced(&self) -> bool {
        self.trace
    }

    /// The simulation mode this session runs in (see
    /// [`ExperimentBuilder::sim_mode`]).
    #[must_use]
    pub fn sim_mode(&self) -> SimMode {
        self.sim_mode
    }

    /// An enable guard when this session is traced, `None` otherwise.
    fn trace_scope(&self) -> Option<bsched_trace::EnableGuard> {
        self.trace.then(bsched_trace::enable_scope)
    }

    /// Compiles and simulates on the session's machine, cross-checking
    /// the simulator's memory against the reference interpreter:
    /// [`Session::compile`] followed by [`Session::simulate`].
    ///
    /// # Errors
    ///
    /// Propagates [`PipelineError`]s from compilation and simulation.
    pub fn run(&self) -> Result<RunResult, PipelineError> {
        let compiled = self.compile()?;
        self.simulate(&compiled, self.options.sim)
    }

    /// Simulates `compiled` on the machine `sim` in the session's
    /// [`SimMode`] and cross-checks its final memory against the
    /// source's reference checksum. The session's own machine
    /// (`options().sim`) plays no part, so one compiled program can be
    /// simulated on each of several machines: compilation reads no
    /// machine ([`CompileOptions::compile_key`]), and each result equals
    /// what [`Session::run`] returns for the session with that machine.
    ///
    /// # Errors
    ///
    /// [`PipelineError`] when the source's reference run fails or the
    /// simulator cannot run the program.
    pub fn simulate(
        &self,
        compiled: &Compiled,
        sim: SimConfig,
    ) -> Result<RunResult, PipelineError> {
        let _trace = self.trace_scope();
        let reference = self.source.reference_checksum()?;
        let run = Simulator::for_machine(&compiled.program, &MachineSpec::custom(sim))
            .with_mode(self.sim_mode)
            .run()?;
        Ok(RunResult {
            metrics: run.metrics,
            compile: compiled.stats.clone(),
            checksum_ok: run.checksum == reference,
            checksum: run.checksum,
            sample: run.sample,
        })
    }

    /// Compiles only (no simulation): the full phase order through
    /// register allocation.
    ///
    /// # Errors
    ///
    /// Propagates [`PipelineError`]s from compilation.
    pub fn compile(&self) -> Result<Compiled, PipelineError> {
        let _trace = self.trace_scope();
        compile_impl(&self.source, &self.options)
    }

    /// [`Session::compile`] that also returns the basic-block scheduling
    /// audit — the pre-schedule region instructions, the weights the list
    /// scheduler saw, and the emitted orders. `bsched-verify` rebuilds
    /// each region's dependence DAG from this record and proves the
    /// schedule legal.
    ///
    /// # Errors
    ///
    /// Propagates [`PipelineError`]s from compilation.
    pub fn compile_audited(&self) -> Result<(Compiled, bsched_core::ScheduleAudit), PipelineError> {
        let _trace = self.trace_scope();
        crate::compile::compile_audited_impl(&self.source, &self.options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_resolves_suite_kernels() {
        let s = Experiment::builder()
            .kernel("TRFD")
            .config(ConfigKind::Lu(4))
            .scheduler(SchedulerKind::Balanced)
            .build()
            .unwrap();
        assert_eq!(s.name(), "TRFD");
        assert_eq!(s.label(), "BS+LU4");
        assert!(s.options().unroll == Some(4) && !s.options().trace);
    }

    #[test]
    fn unknown_kernel_lists_valid_choices() {
        let err = Experiment::builder().kernel("nope").build().unwrap_err();
        let ExperimentError::UnknownKernel { name, valid } = &err else {
            panic!("wrong error: {err:?}");
        };
        assert_eq!(name, "nope");
        assert_eq!(valid.len(), 17);
        let msg = err.to_string();
        assert!(msg.contains("unknown kernel 'nope'"), "{msg}");
        assert!(msg.contains("tomcatv") && msg.contains("ARC2D"), "{msg}");
    }

    #[test]
    fn missing_program_errors() {
        assert_eq!(
            Experiment::builder().build().unwrap_err(),
            ExperimentError::MissingProgram
        );
    }

    #[test]
    fn builder_matches_manual_options() {
        let s = Experiment::builder()
            .kernel("ora")
            .config(ConfigKind::LaTrsLu(8))
            .scheduler(SchedulerKind::Balanced)
            .machine(MachineSpec::alpha21164())
            .build()
            .unwrap();
        let manual = ConfigKind::LaTrsLu(8).options(SchedulerKind::Balanced);
        assert_eq!(*s.options(), manual);
    }

    #[test]
    fn machine_builder_threads_zoo_configs() {
        let wide: MachineSpec = "wide4".parse().unwrap();
        let s = Experiment::builder()
            .kernel("TRFD")
            .machine(wide.clone())
            .build()
            .unwrap();
        assert_eq!(s.options().sim, wide.config());
        assert_eq!(s.options().sim.issue_width, 4);
    }

    #[test]
    fn session_runs_end_to_end() {
        let s = Experiment::builder()
            .kernel("TRFD")
            .scheduler(SchedulerKind::Traditional)
            .build()
            .unwrap();
        let run = s.run().unwrap();
        assert!(run.checksum_ok);
        assert!(run.metrics.cycles > 0);
        let compiled = s.compile().unwrap();
        assert!(compiled.program.main().inst_count() > 0);
    }

    #[test]
    fn simulate_runs_one_compile_on_each_machine() {
        let machines: Vec<MachineSpec> = ["alpha21164", "wide4", "blocking21164"]
            .iter()
            .map(|m| m.parse().unwrap())
            .collect();
        let session = Experiment::builder().kernel("TRFD").build().unwrap();
        let compiled = session.compile().unwrap();
        let runs: Vec<RunResult> = machines
            .iter()
            .map(|m| session.simulate(&compiled, m.config()).unwrap())
            .collect();
        for (m, shared) in machines.iter().zip(&runs) {
            let own = Experiment::builder()
                .kernel("TRFD")
                .machine(m.clone())
                .build()
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(shared.metrics, own.metrics, "{}", m.spec());
            assert_eq!(
                format!("{:?}", shared.compile),
                format!("{:?}", own.compile)
            );
            assert!(shared.checksum_ok);
            assert_eq!(shared.checksum, own.checksum);
        }
        assert_ne!(runs[0].metrics, runs[2].metrics, "the machines differ");
    }

    #[test]
    fn trace_axis_is_observability_only() {
        let traced = Experiment::builder()
            .kernel("TRFD")
            .trace(true)
            .build()
            .unwrap();
        assert!(traced.traced());
        let plain = Experiment::builder().kernel("TRFD").build().unwrap();
        assert!(!plain.traced());
        // Tracing is not a compile axis: the resolved options (and hence
        // every harness cell) are identical either way.
        assert_eq!(traced.options(), plain.options());
    }

    #[test]
    fn sim_mode_axis_is_execution_only() {
        use bsched_sim::SampleConfig;
        let exact = Experiment::builder().kernel("TRFD").build().unwrap();
        let sampled = Experiment::builder()
            .kernel("TRFD")
            .sim_mode(SimMode::Sampled(SampleConfig::default()))
            .build()
            .unwrap();
        assert_eq!(exact.sim_mode(), SimMode::Exact);
        assert!(sampled.sim_mode().is_sampled());
        // The mode is not a compile axis: resolved options (and hence
        // every harness cell) are identical either way.
        assert_eq!(exact.options(), sampled.options());
        // The functional outcome stays exact in sampled mode: counts and
        // checksum match, and the run records its sampling summary.
        let e = exact.run().unwrap();
        let s = sampled.run().unwrap();
        assert!(e.sample.is_none());
        let stats = s.sample.expect("sampled run reports stats");
        assert!(stats.clusters >= 1 && stats.clusters <= stats.intervals);
        assert!(stats.sampled_insts <= stats.total_insts);
        assert!(s.checksum_ok);
        assert_eq!(e.metrics.insts, s.metrics.insts);
        assert!(s.metrics.cycles > 0);
    }
}
