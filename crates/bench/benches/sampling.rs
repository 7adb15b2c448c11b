//! Sampled-simulation speed and accuracy: [`SimMode::Sampled`] against
//! the exact block-compiled engine on the same compiled programs.
//!
//! Per-kernel cases time representative (kernel, options) cells under
//! both modes with the calibrated microbench harness. `--grid` adds the
//! headline case: full simulation passes over the complete
//! `all_experiments` grid (17 kernels × 15 configurations = 255 cells,
//! compile excluded) — the pass the ≥3× acceptance target is about.
//!
//! Accuracy is measured on **every** cell the bench touches, against
//! the exact engine as oracle: per-cell relative errors on CPI, load
//! interlock, and L1D misses (stall/miss denominators floored per
//! `bsched_verify::SAMPLING_FLOOR_FRAC`), aggregated as mean and max.
//! The committed bounds — mean CPI error ≤ `SAMPLING_CPI_MEAN_TOL`,
//! max ≤ `SAMPLING_CPI_TOL` — are asserted outright, so the bench
//! doubles as the release-mode error harness `scripts/ci.sh` runs.
//! Exact-by-construction observables (instruction counts, checksum) are
//! asserted bit-identical on every cell.
//!
//! Sampled timing splits one-time plan construction (profile, k-means,
//! checkpoints; cached process-wide) from the warm per-run replay:
//! `plan_ns` records the cold pass, `sampled_ns` the warm passes a
//! sweep actually repeats. Grid passes interleave exact → sampled
//! within each repetition and the ratios use per-arm minima, so a burst
//! of host contention inflates both arms of one repetition instead of
//! poisoning a single mode's numbers.
//!
//! Flags:
//!
//! * `--grid` — also measure the full-grid passes (slow);
//! * `--sample SPEC` — the sampling configuration to measure (default
//!   `SampleConfig::default()`).
//!
//! The speed ratios are wall-clock and gate nothing.

use bsched_bench::{cli, microbench::bench};
use bsched_pipeline::{standard_grid, CompileOptions, Experiment, SchedulerKind};
use bsched_sim::{MachineSpec, SampleConfig, SimConfig, SimEngine, SimMode, SimResult, Simulator};
use bsched_verify::{
    sampling_rel_err, SAMPLING_CPI_MEAN_TOL, SAMPLING_CPI_TOL, SAMPLING_FLOOR_FRAC,
};
use std::time::{Duration, Instant};

/// Per-cell relative errors of the sampled estimate vs the exact run.
struct CellErr {
    cpi: f64,
    interlock: f64,
    miss: f64,
}

/// Compares one cell's sampled run against its exact oracle: asserts
/// the exact-by-construction observables bit-identical and returns the
/// relative errors of the estimates.
fn cell_err(name: &str, exact: &SimResult, sampled: &SimResult) -> CellErr {
    assert_eq!(
        exact.metrics.insts, sampled.metrics.insts,
        "{name}: sampled instruction counts must be exact"
    );
    assert_eq!(
        exact.checksum, sampled.checksum,
        "{name}: sampled checksum must be exact"
    );
    let cycles_floor = (exact.metrics.cycles as f64 * SAMPLING_FLOOR_FRAC) as u64;
    let reads_floor = (exact.metrics.mem.total_reads() as f64 * SAMPLING_FLOOR_FRAC) as u64;
    let misses = |r: &SimResult| r.metrics.mem.total_reads() - r.metrics.mem.l1d_hits;
    CellErr {
        cpi: sampling_rel_err(sampled.metrics.cycles, exact.metrics.cycles, 1),
        interlock: sampling_rel_err(
            sampled.metrics.load_interlock,
            exact.metrics.load_interlock,
            cycles_floor,
        ),
        miss: sampling_rel_err(misses(sampled), misses(exact), reads_floor),
    }
}

/// One cell (or cell sweep) measured exactly and sampled.
struct Case {
    name: String,
    cells: usize,
    insts: u64,
    sampled_insts: u64,
    exact_ns: u128,
    sampled_ns: u128,
    exact_min_ns: u128,
    sampled_min_ns: u128,
    /// One-time plan construction (cold first sampled pass).
    plan_ns: u128,
    cpi_mean_err: f64,
    cpi_max_err: f64,
    interlock_max_err: f64,
    miss_max_err: f64,
}

impl Case {
    fn speedup(&self) -> f64 {
        self.exact_ns as f64 / self.sampled_ns.max(1) as f64
    }

    fn with_errs(mut self, errs: &[CellErr]) -> Case {
        let n = errs.len().max(1) as f64;
        self.cpi_mean_err = errs.iter().map(|e| e.cpi).sum::<f64>() / n;
        self.cpi_max_err = errs.iter().map(|e| e.cpi).fold(0.0, f64::max);
        self.interlock_max_err = errs.iter().map(|e| e.interlock).fold(0.0, f64::max);
        self.miss_max_err = errs.iter().map(|e| e.miss).fold(0.0, f64::max);
        self
    }

    /// The committed accuracy bounds; the bench fails outright when a
    /// configuration change pushes estimates past them. The mean bound
    /// is a sweep-level criterion — single-cell cases only get the
    /// per-cell max bound.
    fn assert_within_bounds(&self) {
        assert!(
            self.cpi_max_err <= SAMPLING_CPI_TOL,
            "{}: max CPI error {:.2}% exceeds the {:.0}% bound",
            self.name,
            self.cpi_max_err * 100.0,
            SAMPLING_CPI_TOL * 100.0
        );
        assert!(
            self.cells == 1 || self.cpi_mean_err <= SAMPLING_CPI_MEAN_TOL,
            "{}: mean CPI error {:.2}% exceeds the {:.0}% bound",
            self.name,
            self.cpi_mean_err * 100.0,
            SAMPLING_CPI_MEAN_TOL * 100.0
        );
    }
}

fn run(program: &bsched_ir::Program, sim: SimConfig, mode: SimMode) -> SimResult {
    Simulator::for_machine(program, &MachineSpec::custom(sim))
        .with_engine(SimEngine::BlockCompiled)
        .with_mode(mode)
        .run()
        .expect("simulates")
}

fn print_case(case: &Case) {
    println!(
        "  {:<28} speedup {:>6.1}x  cpi err mean {:.2}% max {:.2}%  \
         ({} of {} insts simulated)",
        case.name,
        case.speedup(),
        case.cpi_mean_err * 100.0,
        case.cpi_max_err * 100.0,
        case.sampled_insts,
        case.insts,
    );
}

fn measure_cell(name: &str, program: &bsched_ir::Program, sim: SimConfig, mode: SimMode) {
    let exact_result = run(program, sim, SimMode::Exact);
    // Cold: builds the plan (profile + k-means + checkpoints).
    let cold = Instant::now();
    let sampled_result = run(program, sim, mode);
    let plan_ns = cold.elapsed().as_nanos();
    let errs = [cell_err(name, &exact_result, &sampled_result)];

    let exact = bench(&format!("sample/exact/{name}"), || {
        run(program, sim, SimMode::Exact)
    });
    let sampled = bench(&format!("sample/sampled/{name}"), || {
        run(program, sim, mode)
    });
    let case = Case {
        name: name.to_string(),
        cells: 1,
        insts: exact_result.metrics.insts.total(),
        sampled_insts: sampled_result.sample.expect("sampled run").sampled_insts,
        exact_ns: exact.median.as_nanos(),
        sampled_ns: sampled.median.as_nanos(),
        exact_min_ns: exact.min.as_nanos(),
        sampled_min_ns: sampled.min.as_nanos(),
        plan_ns,
        cpi_mean_err: 0.0,
        cpi_max_err: 0.0,
        interlock_max_err: 0.0,
        miss_max_err: 0.0,
    }
    .with_errs(&errs);
    print_case(&case);
    case.assert_within_bounds();
}

/// Full simulation passes over the standard 255-cell grid, exact vs
/// sampled. Every cell is compiled and its sampling plan built up front
/// (the cold pass is reported as `plan_ns`); the timed passes run only
/// the simulator.
fn measure_grid(mode: SimMode) {
    let mut cells = Vec::new();
    for k in bsched_workloads::all_kernels() {
        for cfg in standard_grid() {
            let options = cfg.options();
            let compiled = Experiment::builder()
                .program(k.name, k.program())
                .compile_options(options)
                .build()
                .expect("cell builds")
                .compile()
                .expect("cell compiles");
            cells.push((
                format!("{}/{}", k.name, options.label()),
                compiled.program,
                options.sim,
            ));
        }
    }

    // Cold sampled pass: plan construction for every cell, plus the
    // per-cell accuracy comparison against the exact oracle.
    let mut insts = 0;
    let mut sampled_insts = 0;
    let mut errs = Vec::with_capacity(cells.len());
    let cold = Instant::now();
    for (name, program, sim) in &cells {
        let exact = run(program, *sim, SimMode::Exact);
        let sampled = run(program, *sim, mode);
        let e = cell_err(name, &exact, &sampled);
        if e.cpi > SAMPLING_CPI_TOL {
            println!(
                "    out-of-bound cell {name}: cpi err {:.2}% \
                 ({} est vs {} exact cycles, {:?})",
                e.cpi * 100.0,
                sampled.metrics.cycles,
                exact.metrics.cycles,
                sampled.sample.expect("sampled run"),
            );
        }
        errs.push(e);
        insts += exact.metrics.insts.total();
        sampled_insts += sampled.sample.expect("sampled run").sampled_insts;
    }
    let plan_ns = cold.elapsed().as_nanos();

    let passes: usize = std::env::var("BENCH_GRID_PASSES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| (1..=100).contains(&n))
        .unwrap_or(5);
    let pass = |m: SimMode| -> Duration {
        let start = Instant::now();
        for (_, program, sim) in &cells {
            std::hint::black_box(run(program, *sim, m));
        }
        start.elapsed()
    };
    // Interleaved repetitions: contention bursts hit one repetition's
    // two arms together rather than one mode's whole sweep.
    let (mut exact, mut sampled) = (Vec::new(), Vec::new());
    for _ in 0..passes {
        exact.push(pass(SimMode::Exact));
        sampled.push(pass(mode));
    }
    exact.sort();
    sampled.sort();
    let case = Case {
        name: format!("grid/all_experiments_{}", cells.len()),
        cells: cells.len(),
        insts,
        sampled_insts,
        exact_ns: exact[passes / 2].as_nanos(),
        sampled_ns: sampled[passes / 2].as_nanos(),
        exact_min_ns: exact[0].as_nanos(),
        sampled_min_ns: sampled[0].as_nanos(),
        plan_ns,
        cpi_mean_err: 0.0,
        cpi_max_err: 0.0,
        interlock_max_err: 0.0,
        miss_max_err: 0.0,
    }
    .with_errs(&errs);
    print_case(&case);
    println!(
        "    exact {:.3}s/pass, sampled {:.3}s/pass warm ({passes} passes each), \
         plan build {:.3}s once",
        case.exact_min_ns as f64 / 1e9,
        case.sampled_min_ns as f64 / 1e9,
        case.plan_ns as f64 / 1e9,
    );
    println!(
        "    interlock err max {:.2}%, l1d-miss err max {:.2}% (floored denominators)",
        case.interlock_max_err * 100.0,
        case.miss_max_err * 100.0,
    );
    case.assert_within_bounds();
}

fn main() {
    let mut grid = false;
    let mut sample = SampleConfig::default();
    cli::bench_args(|flag, args| match flag {
        "--grid" => {
            grid = true;
            true
        }
        "--sample" => {
            sample = cli::parse_sample(&args.value());
            true
        }
        _ => false,
    });
    let mode = SimMode::Sampled(sample);

    println!("sampling (exact block engine vs sampled mode, {mode:?}):");
    for (kernel, options) in [
        ("su2cor", CompileOptions::new(SchedulerKind::Balanced)),
        (
            "tomcatv",
            CompileOptions::new(SchedulerKind::Balanced).with_unroll(8),
        ),
        ("ARC2D", CompileOptions::new(SchedulerKind::Traditional)),
    ] {
        let name = format!("{kernel}/{}", options.label());
        let compiled = Experiment::builder()
            .kernel(kernel)
            .compile_options(options)
            .build()
            .expect("kernel exists")
            .compile()
            .expect("compiles");
        measure_cell(&name, &compiled.program, options.sim, mode);
    }

    if grid {
        println!("full grid (simulation only, compile excluded):");
        measure_grid(mode);
    }
}
