//! Timing-simulator throughput: the **interpreting** engine against the
//! **block-compiled** engine on the same compiled programs.
//!
//! Per-kernel cases time representative (kernel, options) cells through
//! both engines with the calibrated microbench harness. `--grid` adds
//! the headline case: full simulation passes over the complete
//! `all_experiments` grid (17 kernels × 15 configurations = 255 cells,
//! compile excluded) per engine — the number the ≥10× target is about.
//! Engine bit-identity (metrics and checksum) is asserted on every cell
//! measured, so the bench doubles as an equivalence check.
//!
//! The grid case also times the reference interpreter
//! (`bsched_ir::Interp`) over every cell: untimed functional execution
//! of the same programs. Neither engine contains that work — each runs
//! its own decoded program form, and the interpreter decodes `main` on
//! every run — so it is a point of comparison, not a floor to subtract:
//! only the raw wall-clock times are reported. Grid passes interleave
//! interpret → block → functional within each repetition and the ratio
//! uses per-arm minima, so a burst of host contention inflates all
//! three arms of one repetition instead of poisoning a single engine's
//! numbers.
//!
//! Flags (same contract as `benches/weights.rs`):
//!
//! * `--grid` — also measure the full-grid passes (slow; used to
//!   produce the committed `BENCH_pr7.json`);
//! * `--json PATH` — write the measurements as JSON;
//! * `--check BASELINE` — gate the per-case interp:block speedups
//!   against a recorded JSON (DESIGN.md, "Baseline gates");
//! * `--check-ratio R` — the gate's floor (default `0.9`). The ratios
//!   are wall-clock and swing on a shared host, so `scripts/ci.sh` does
//!   not run this gate; it pins the block engine's work counts exactly
//!   instead (`block::tests::work_counts_match_the_recorded_table` in
//!   `bsched-sim`).

use bsched_bench::{baseline, cli::BenchArgs, microbench::bench};
use bsched_pipeline::{standard_grid, CompileOptions, Experiment, SchedulerKind};
use bsched_sim::{MachineSpec, SimConfig, SimEngine, SimResult, Simulator};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One compiled cell (or cell sweep) measured under both engines.
struct Case {
    name: String,
    insts: u64,
    loads: u64,
    interp_ns: u128,
    block_ns: u128,
    interp_min_ns: u128,
    block_min_ns: u128,
    /// Reference-interpreter pass times (grid case only).
    func_ns: Option<u128>,
    func_min_ns: Option<u128>,
}

impl Case {
    fn speedup(&self) -> f64 {
        self.interp_ns as f64 / self.block_ns.max(1) as f64
    }

    /// Speedup from the fastest observed times — far less sensitive to
    /// scheduling noise than medians (interference only adds time).
    fn speedup_min(&self) -> f64 {
        self.interp_min_ns as f64 / self.block_min_ns.max(1) as f64
    }
}

fn compile_cell(kernel: &str, options: CompileOptions) -> (bsched_ir::Program, SimConfig) {
    let compiled = Experiment::builder()
        .kernel(kernel)
        .compile_options(options)
        .build()
        .expect("kernel exists")
        .compile()
        .expect("compiles");
    (compiled.program, options.sim)
}

fn run(program: &bsched_ir::Program, sim: SimConfig, engine: SimEngine) -> SimResult {
    Simulator::for_machine(program, &MachineSpec::custom(sim))
        .with_engine(engine)
        .run()
        .expect("simulates")
}

fn print_case(case: &Case) {
    println!(
        "  {:<28} speedup {:>6.1}x  ({} insts, {} loads)",
        case.name,
        case.speedup(),
        case.insts,
        case.loads
    );
}

fn measure_cell(name: &str, program: &bsched_ir::Program, sim: SimConfig) -> Case {
    let interp_result = run(program, sim, SimEngine::Interpret);
    let block_result = run(program, sim, SimEngine::BlockCompiled);
    assert_eq!(
        interp_result.metrics, block_result.metrics,
        "{name}: engines diverged"
    );
    assert_eq!(interp_result.checksum, block_result.checksum, "{name}");

    let interp = bench(&format!("sim/interp/{name}"), || {
        run(program, sim, SimEngine::Interpret)
    });
    let block = bench(&format!("sim/block/{name}"), || {
        run(program, sim, SimEngine::BlockCompiled)
    });
    let case = Case {
        name: name.to_string(),
        insts: interp_result.metrics.insts.total(),
        loads: interp_result.metrics.insts.loads,
        interp_ns: interp.median.as_nanos(),
        block_ns: block.median.as_nanos(),
        interp_min_ns: interp.min.as_nanos(),
        block_min_ns: block.min.as_nanos(),
        func_ns: None,
        func_min_ns: None,
    };
    print_case(&case);
    case
}

/// Full simulation passes over the standard 255-cell grid, per engine.
/// Every cell is compiled up front; the timed passes run only the
/// simulator.
fn measure_grid() -> Case {
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
            cells.push((compiled.program, options.sim));
        }
    }

    // Bit-identity across the whole grid, plus the instruction totals.
    let mut insts = 0;
    let mut loads = 0;
    for (program, sim) in &cells {
        let a = run(program, *sim, SimEngine::Interpret);
        let b = run(program, *sim, SimEngine::BlockCompiled);
        assert_eq!(a.metrics, b.metrics, "{}: engines diverged", program.name());
        assert_eq!(a.checksum, b.checksum, "{}", program.name());
        insts += a.metrics.insts.total();
        loads += a.metrics.insts.loads;
    }

    let passes: usize = std::env::var("BENCH_GRID_PASSES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| (1..=100).contains(&n))
        .unwrap_or(5);
    let engine_pass = |engine: SimEngine| -> Duration {
        let start = Instant::now();
        for (program, sim) in &cells {
            std::hint::black_box(run(program, *sim, engine));
        }
        start.elapsed()
    };
    let func_pass = || -> Duration {
        let start = Instant::now();
        for (program, _) in &cells {
            std::hint::black_box(
                bsched_ir::interp::Interp::new(program)
                    .run()
                    .expect("cell executes"),
            );
        }
        start.elapsed()
    };
    // Interleaved repetitions: contention bursts hit one repetition's
    // three arms together rather than one engine's whole sweep.
    let (mut interp, mut block, mut func) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..passes {
        interp.push(engine_pass(SimEngine::Interpret));
        block.push(engine_pass(SimEngine::BlockCompiled));
        func.push(func_pass());
    }
    interp.sort();
    block.sort();
    func.sort();
    let case = Case {
        name: format!("grid/all_experiments_{}", cells.len()),
        insts,
        loads,
        interp_ns: interp[passes / 2].as_nanos(),
        block_ns: block[passes / 2].as_nanos(),
        interp_min_ns: interp[0].as_nanos(),
        block_min_ns: block[0].as_nanos(),
        func_ns: Some(func[passes / 2].as_nanos()),
        func_min_ns: Some(func[0].as_nanos()),
    };
    print_case(&case);
    println!(
        "    interp {:.2}s/pass, block {:.2}s/pass, reference interpreter {:.2}s/pass \
         ({passes} passes each)",
        case.interp_min_ns as f64 / 1e9,
        case.block_min_ns as f64 / 1e9,
        case.func_min_ns.unwrap_or(0) as f64 / 1e9,
    );
    case
}

fn to_json(c: &Case) -> String {
    let mut reference = String::new();
    if let (Some(f), Some(fm)) = (c.func_ns, c.func_min_ns) {
        let _ = write!(
            reference,
            ", \"functional_ns\": {f}, \"functional_min_ns\": {fm}"
        );
    }
    format!(
        "{{\"name\": \"{}\", \"insts\": {}, \"loads\": {}, \
         \"interp_ns\": {}, \"block_ns\": {}, \"speedup\": {:.2}, \
         \"interp_min_ns\": {}, \"block_min_ns\": {}, \"speedup_min\": {:.2}{reference}}}",
        c.name,
        c.insts,
        c.loads,
        c.interp_ns,
        c.block_ns,
        c.speedup(),
        c.interp_min_ns,
        c.block_min_ns,
        c.speedup_min()
    )
}

fn main() {
    let mut grid = false;
    let flags = BenchArgs::parse(|flag, _| match flag {
        "--grid" => {
            grid = true;
            true
        }
        _ => false,
    });

    println!("simulator (interpreting engine vs block-compiled engine):");
    let mut cases = Vec::new();
    for (kernel, options) in [
        ("su2cor", CompileOptions::new(SchedulerKind::Balanced)),
        (
            "tomcatv",
            CompileOptions::new(SchedulerKind::Balanced).with_unroll(8),
        ),
        ("ARC2D", CompileOptions::new(SchedulerKind::Traditional)),
    ] {
        let name = format!("{kernel}/{}", options.label());
        let (program, sim) = compile_cell(kernel, options);
        cases.push(measure_cell(&name, &program, sim));
    }

    if grid {
        println!("full grid (simulation only, compile excluded):");
        cases.push(measure_grid());
    }

    if let Some(path) = &flags.json {
        baseline::write(
            path,
            "simulator",
            &cases.iter().map(to_json).collect::<Vec<_>>(),
        );
    }
    if let Some(path) = &flags.check {
        baseline::check(path, "sim", &["speedup"], |name, base| {
            let c = cases.iter().find(|c| c.name == name)?;
            Some(baseline::speedup_floor(
                base,
                c.speedup(),
                c.speedup_min(),
                flags.check_ratio,
            ))
        });
    }
}
