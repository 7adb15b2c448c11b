//! Compile-and-simulate entry point.

use crate::compile::{compile_impl, CompileStats, Compiled, PipelineError};
use crate::options::CompileOptions;
use crate::source::Source;
use bsched_sim::{MachineSpec, SampleStats, SimConfig, SimMetrics, SimMode, Simulator};

/// The result of one end-to-end run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Timing metrics from the 21164-like simulator (estimates under
    /// [`SimMode::Sampled`]; instruction counts are always exact).
    pub metrics: SimMetrics,
    /// Compilation statistics.
    pub compile: CompileStats,
    /// `true` when the simulator's final memory matched the reference
    /// interpreter's (always checked; a `false` here is a simulator bug).
    /// Sampled runs derive their checksum from an exact functional pass,
    /// so the cross-check holds there too.
    pub checksum_ok: bool,
    /// Sampling summary when the run was sampled; `None` for exact runs.
    pub sample: Option<SampleStats>,
}

/// One compiled program run on a sequence of machines — the iterator
/// behind [`crate::Session::run_on`] (and so [`crate::Session::run`]).
///
/// Compilation reads no machine ([`CompileOptions::compile_key`]), so
/// the first call to `next` compiles once and every call simulates the
/// compiled program on the next [`SimConfig`]. A failed compile, or a
/// source whose reference run fails, is the result of every item. The
/// compiled program lives as long as the iterator.
#[derive(Debug)]
pub struct Runs<'a, I> {
    pub(crate) source: &'a Source,
    pub(crate) opts: CompileOptions,
    pub(crate) mode: SimMode,
    pub(crate) machines: I,
    /// The compiled program and the source's reference checksum, once
    /// the first item asked for them.
    pub(crate) compiled: Option<Result<(Compiled, u64), PipelineError>>,
    /// Keeps a traced session's tracing on while the runs last.
    pub(crate) _trace: Option<bsched_trace::EnableGuard>,
}

impl<I: Iterator<Item = SimConfig>> Iterator for Runs<'_, I> {
    type Item = Result<RunResult, PipelineError>;

    fn next(&mut self) -> Option<Self::Item> {
        let sim = self.machines.next()?;
        let compiled = self.compiled.get_or_insert_with(|| {
            let compiled = compile_impl(self.source, &self.opts)?;
            Ok((compiled, self.source.reference_checksum()?))
        });
        Some(match compiled {
            Ok((compiled, reference)) => simulate(compiled, *reference, sim, self.mode),
            Err(e) => Err(e.clone()),
        })
    }
}

/// Simulates a compiled program on one machine and cross-checks its
/// final memory against the source's reference checksum.
fn simulate(
    compiled: &Compiled,
    reference: u64,
    sim: SimConfig,
    mode: SimMode,
) -> Result<RunResult, PipelineError> {
    let run = Simulator::for_machine(&compiled.program, &MachineSpec::custom(sim))
        .with_mode(mode)
        .run()?;
    Ok(RunResult {
        metrics: run.metrics,
        compile: compiled.stats.clone(),
        checksum_ok: run.checksum == reference,
        sample: run.sample,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use bsched_core::SchedulerKind;
    use bsched_ir::Program;
    use bsched_workloads::lang::ast::{Expr, Index};
    use bsched_workloads::lang::{ArrayInit, Kernel};

    fn run_one(p: &Program, opts: CompileOptions) -> RunResult {
        Experiment::builder()
            .program("test", p.clone())
            .compile_options(opts)
            .build()
            .unwrap()
            .run()
            .unwrap()
    }

    fn stream_kernel(n: i64) -> Program {
        let mut k = Kernel::new("stream");
        let a = k.array("a", n as u64, ArrayInit::Random(1));
        let b = k.array("b", n as u64, ArrayInit::Random(2));
        let c = k.array("c", n as u64, ArrayInit::Zero);
        let i = k.int_var("i");
        let body = vec![k.store(
            c,
            Index::of(i),
            Expr::load(a, Index::of(i)) * Expr::Float(3.0) + Expr::load(b, Index::of(i)),
        )];
        k.push(k.for_loop(i, Expr::Int(0), Expr::Int(n), body));
        k.lower()
    }

    #[test]
    fn balanced_beats_traditional_on_streaming_loads() {
        let p = stream_kernel(2048); // 16 KB arrays: spills out of L1
        let bs = run_one(&p, CompileOptions::new(SchedulerKind::Balanced));
        let ts = run_one(&p, CompileOptions::new(SchedulerKind::Traditional));
        assert!(bs.checksum_ok && ts.checksum_ok);
        assert!(
            bs.metrics.load_interlock <= ts.metrics.load_interlock,
            "balanced scheduling must not increase load interlocks: {} vs {}",
            bs.metrics.load_interlock,
            ts.metrics.load_interlock
        );
    }

    #[test]
    fn unrolling_reduces_cycles() {
        let p = stream_kernel(1024);
        let base = run_one(&p, CompileOptions::new(SchedulerKind::Balanced));
        let lu4 = run_one(
            &p,
            CompileOptions::new(SchedulerKind::Balanced).with_unroll(4),
        );
        assert!(
            lu4.metrics.cycles < base.metrics.cycles,
            "LU4 must speed up a streaming loop: {} vs {}",
            lu4.metrics.cycles,
            base.metrics.cycles
        );
        assert!(lu4.metrics.insts.total() < base.metrics.insts.total());
    }

    #[test]
    fn locality_runs_and_stays_correct() {
        let p = stream_kernel(512);
        let la = run_one(
            &p,
            CompileOptions::new(SchedulerKind::Balanced).with_locality(),
        );
        assert!(la.checksum_ok);
        assert!(la.compile.locality.hits_marked > 0);
    }
}
