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
//! interpret → block → functional within each repetition and the
//! per-pass times printed are per-arm minima, so a burst of host
//! contention inflates all three arms of one repetition instead of
//! poisoning a single engine's numbers.
//!
//! Flags:
//!
//! * `--grid` — also measure the full-grid passes (slow).
//!
//! The bench gates nothing: the ratios are wall-clock and swing on a
//! shared host, so `scripts/ci.sh` pins the block engine's work counts
//! exactly instead (`block::tests::work_counts_match_the_recorded_table`
//! in `bsched-sim`).

use bsched_bench::{cli, microbench::bench};
use bsched_pipeline::{standard_grid, CompileOptions, Experiment, SchedulerKind};
use bsched_sim::{MachineSpec, SimConfig, SimEngine, SimResult, Simulator};
use std::time::{Duration, Instant};

/// One compiled cell (or cell sweep) measured under both engines.
struct Case {
    name: String,
    insts: u64,
    loads: u64,
    interp_ns: u128,
    block_ns: u128,
}

impl Case {
    fn speedup(&self) -> f64 {
        self.interp_ns as f64 / self.block_ns.max(1) as f64
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

fn measure_cell(name: &str, program: &bsched_ir::Program, sim: SimConfig) {
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
    print_case(&Case {
        name: name.to_string(),
        insts: interp_result.metrics.insts.total(),
        loads: interp_result.metrics.insts.loads,
        interp_ns: interp.median.as_nanos(),
        block_ns: block.median.as_nanos(),
    });
}

/// Full simulation passes over the standard 255-cell grid, per engine.
/// Every cell is compiled up front; the timed passes run only the
/// simulator.
fn measure_grid() {
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
    print_case(&Case {
        name: format!("grid/all_experiments_{}", cells.len()),
        insts,
        loads,
        interp_ns: interp[passes / 2].as_nanos(),
        block_ns: block[passes / 2].as_nanos(),
    });
    println!(
        "    interp {:.2}s/pass, block {:.2}s/pass, reference interpreter {:.2}s/pass \
         ({passes} passes each)",
        interp[0].as_secs_f64(),
        block[0].as_secs_f64(),
        func[0].as_secs_f64(),
    );
}

fn main() {
    let mut grid = false;
    cli::bench_args(|flag, _| match flag {
        "--grid" => {
            grid = true;
            true
        }
        _ => false,
    });

    println!("simulator (interpreting engine vs block-compiled engine):");
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
        measure_cell(&name, &program, sim);
    }

    if grid {
        println!("full grid (simulation only, compile excluded):");
        measure_grid();
    }
}
