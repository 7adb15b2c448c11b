//! Cross-crate integration: every kernel of the workload compiles and
//! simulates correctly under representative configurations, spanning
//! frontend → optimizations → scheduling → allocation → simulation.

use balanced_scheduling::pipeline::{CompileOptions, Experiment, RunResult, SchedulerKind};
use balanced_scheduling::workloads::all_kernels;
use bsched_ir::Program;

/// Runs one kernel program under one option set through the public
/// `Experiment` API.
fn run_cell(name: &str, program: &Program, opts: &CompileOptions) -> RunResult {
    Experiment::builder()
        .program(name, program.clone())
        .compile_options(*opts)
        .build()
        .expect("program supplied")
        .run()
        .unwrap_or_else(|e| panic!("{name} under {}: {e}", opts.label()))
}

/// Resolves a suite kernel by name and runs it.
fn run_kernel(name: &str, opts: &CompileOptions) -> RunResult {
    Experiment::builder()
        .kernel(name)
        .compile_options(*opts)
        .build()
        .expect("kernel exists")
        .run()
        .unwrap_or_else(|e| panic!("{name} under {}: {e}", opts.label()))
}

/// A fast config subset for the full 17-kernel sweep (debug builds run
/// this; the full grid lives in the bench binaries).
fn smoke_configs() -> Vec<CompileOptions> {
    vec![
        CompileOptions::new(SchedulerKind::Traditional),
        CompileOptions::new(SchedulerKind::Balanced),
        CompileOptions::new(SchedulerKind::Balanced).with_unroll(4),
    ]
}

#[test]
fn all_kernels_compile_and_match_reference_on_smoke_configs() {
    for spec in all_kernels() {
        let program = spec.program();
        for opts in smoke_configs() {
            let run = run_cell(spec.name, &program, &opts);
            assert!(
                run.checksum_ok,
                "{} under {} diverged",
                spec.name,
                opts.label()
            );
            assert!(run.metrics.cycles > 0);
            assert!(run.metrics.insts.total() > 0);
        }
    }
}

#[test]
fn full_config_grid_on_two_kernels() {
    for name in ["QCD2", "su2cor"] {
        for cfg in balanced_scheduling::pipeline::standard_grid() {
            let run = run_kernel(name, &cfg.options());
            assert!(
                run.checksum_ok,
                "{name} under {} diverged",
                cfg.options().label()
            );
        }
    }
}

#[test]
fn scheduling_changes_order_not_results() {
    let bs = run_kernel("MDG", &CompileOptions::new(SchedulerKind::Balanced));
    let ts = run_kernel("MDG", &CompileOptions::new(SchedulerKind::Traditional));
    // Identical instruction mixes (same code, different order), different
    // interlock behaviour.
    assert_eq!(bs.metrics.insts.total(), ts.metrics.insts.total());
    assert_ne!(
        (bs.metrics.load_interlock, bs.metrics.fixed_interlock),
        (ts.metrics.load_interlock, ts.metrics.fixed_interlock),
        "the schedules must actually differ"
    );
}

#[test]
fn unrolling_reduces_dynamic_instructions_on_streamy_kernels() {
    for name in ["su2cor", "tomcatv", "hydro2d"] {
        let base = run_kernel(name, &CompileOptions::new(SchedulerKind::Balanced));
        let lu4 = run_kernel(
            name,
            &CompileOptions::new(SchedulerKind::Balanced).with_unroll(4),
        );
        assert!(
            lu4.metrics.insts.total() < base.metrics.insts.total(),
            "{name}: unrolling must remove loop overhead ({} -> {})",
            base.metrics.insts.total(),
            lu4.metrics.insts.total()
        );
        assert!(
            lu4.metrics.insts.branches + lu4.metrics.insts.jumps
                < base.metrics.insts.branches + base.metrics.insts.jumps
        );
    }
}

#[test]
fn locality_marks_hits_on_tomcatv() {
    let la = run_kernel(
        "tomcatv",
        &CompileOptions::new(SchedulerKind::Balanced).with_locality(),
    );
    assert!(la.compile.locality.hits_marked > 0);
    assert!(la.compile.locality.misses_marked > 0);
    let base = run_kernel("tomcatv", &CompileOptions::new(SchedulerKind::Balanced));
    assert!(
        la.metrics.cycles < base.metrics.cycles,
        "locality analysis must pay off on its best-case kernel"
    );
}

#[test]
fn spice_load_interlocks_resist_every_optimization() {
    // The paper's spice2g6 keeps ~30% of its cycles in load interlocks no
    // matter what; our pointer-chase kernel reproduces that.
    for opts in [
        CompileOptions::new(SchedulerKind::Balanced),
        CompileOptions::new(SchedulerKind::Balanced).with_unroll(8),
        CompileOptions::new(SchedulerKind::Balanced)
            .with_unroll(8)
            .with_trace(),
    ] {
        let run = run_kernel("spice2g6", &opts);
        assert!(
            run.metrics.load_interlock_fraction() > 0.2,
            "{}: pointer chase must stay memory-bound, got {:.1}%",
            opts.label(),
            run.metrics.load_interlock_fraction() * 100.0
        );
    }
}

#[test]
fn ora_has_no_load_interlocks() {
    // ora's working set lives in registers and the L1: the paper reports
    // 0.0% load interlocks under every configuration.
    let run = run_kernel("ora", &CompileOptions::new(SchedulerKind::Balanced));
    assert!(
        run.metrics.load_interlock_fraction() < 0.02,
        "got {:.2}%",
        run.metrics.load_interlock_fraction() * 100.0
    );
}
