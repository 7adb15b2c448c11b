//! The machine-zoo gap table: how the paper's balanced-vs-traditional
//! speedup moves as the machine changes.
//!
//! For every registered machine description (`bsched_sim::MachineSpec`)
//! the binary runs each kernel under three scheduler arms at the
//! paper's headline optimization level (LU 4): traditional list
//! scheduling, balanced scheduling, and the exact branch-and-bound
//! scheduler as an optimality bound. The headline column is the cycle
//! reduction balanced scheduling buys over traditional on that machine
//! — the paper's central claim, re-measured across predictors,
//! prefetchers, MSHR policies and issue widths the 1995 machine could
//! not express.
//!
//! Every cell runs through the harness engine, so the table is
//! deduplicated, parallel, and — because cycles are deterministic —
//! byte-identical across runs and worker counts.
//! The `alpha21164` rows are by construction identical to the default
//! machine's numbers in `results/all_experiments.csv`.
//!
//! Flags:
//!
//! * `--machines SPEC,...` — restrict (or extend, via spec modifiers
//!   like `alpha21164+bp=gshare`) the machine list; exit 2 with the
//!   valid choices on bad specs;
//! * `--kernels NAME,...` — restrict to a kernel subset (exit 2 with
//!   the valid choices on unknown names);
//! * `--verify` — run the `bsched-verify` conformance suite on every
//!   executed cell (`BSCHED_VERIFY=1` does the same);
//! * `--csv` — also write `results/machines.csv` (`scripts/regen.sh`
//!   rewrites it and CI diffs it against the committed copy).
//!
//! Every flag also takes the `--flag=value` spelling; a missing value or
//! an unknown flag exits 2 (`bsched_bench::cli`).
//!
//! Unlike the paper-table binaries this one ignores `BSCHED_MACHINE`:
//! the machine axis *is* the sweep.

use bsched_bench::cli::{self, Args};
use bsched_bench::Grid;
use bsched_harness::{Engine, EngineConfig, ExperimentCell};
use bsched_pipeline::{CompileOptions, MachineSpec, SchedulerKind};
use std::fmt::Write as _;

/// One (machine, kernel) row: cycles under the three scheduler arms.
struct Row {
    machine: String,
    kernel: String,
    ts: u64,
    bs: u64,
    ex: u64,
}

impl Row {
    /// Percent cycle reduction from traditional to balanced.
    fn bs_gain(&self) -> f64 {
        100.0 * bsched_bench::pct_decrease(self.ts, self.bs)
    }

    /// Percent cycle reduction from traditional to the exact bound.
    fn ex_gain(&self) -> f64 {
        100.0 * bsched_bench::pct_decrease(self.ts, self.ex)
    }
}

/// Per-machine totals (summed over the kernel set).
#[derive(Default)]
struct Totals {
    ts: u64,
    bs: u64,
    ex: u64,
}

#[derive(Default)]
struct Cli {
    csv: bool,
    verify: bool,
    machines: Option<Vec<MachineSpec>>,
    kernels: Vec<String>,
}

/// `--machines SPEC,...` (exit 2 naming the valid machines).
fn parse_machine_list(raw: &str) -> Vec<MachineSpec> {
    let specs: Vec<&str> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if specs.is_empty() {
        eprintln!(
            "--machines requires at least one machine spec; valid machines: {}",
            MachineSpec::valid_names()
        );
        std::process::exit(2);
    }
    specs
        .into_iter()
        .map(|s| {
            s.parse()
                .unwrap_or_else(|e: String| bsched_util::spec::exit2("--machines", &e))
        })
        .collect()
}

impl Cli {
    /// Walks the command line (`bsched_bench::cli`); exits 2 on bad flags.
    fn parse() -> Cli {
        let mut cli = Cli {
            kernels: cli::all_kernel_names(),
            ..Cli::default()
        };
        let mut args = Args::from_env();
        while let Some(flag) = args.next_flag() {
            match flag.as_str() {
                "--csv" => cli.csv = true,
                "--verify" => cli.verify = true,
                "--machines" => cli.machines = Some(parse_machine_list(&args.value())),
                "--kernels" => cli.kernels = cli::parse_kernel_list(&args.value()),
                _ => args.unknown(),
            }
        }
        cli
    }
}

/// The three judged arms, at the paper's headline LU 4 level.
const ARMS: [SchedulerKind; 3] = [
    SchedulerKind::Traditional,
    SchedulerKind::Balanced,
    SchedulerKind::Exact,
];

fn arm_options(arm: SchedulerKind, machine: &MachineSpec) -> CompileOptions {
    CompileOptions::new(arm)
        .with_unroll(4)
        .with_sim(machine.config())
}

fn main() {
    let cli = Cli::parse();

    let mut engine_cfg = EngineConfig::from_env();
    engine_cfg.verify = engine_cfg.verify || cli.verify;
    let grid = Grid::with_engine(Engine::with_standard_kernels(engine_cfg));

    let machines: Vec<MachineSpec> = cli.machines.clone().unwrap_or_else(|| {
        MachineSpec::registry()
            .iter()
            .map(|m| MachineSpec::named(m.name).expect("registry names parse"))
            .collect()
    });
    let kernels = &cli.kernels;

    // The whole machine × kernel × arm product in one parallel batch.
    let mut cells = Vec::with_capacity(machines.len() * kernels.len() * ARMS.len());
    for m in &machines {
        for kernel in kernels {
            for arm in ARMS {
                cells.push(ExperimentCell::new(kernel, arm_options(arm, m)));
            }
        }
    }
    grid.prefetch_cells(&cells);

    let mut rows: Vec<Row> = Vec::new();
    for m in &machines {
        for kernel in kernels {
            let cycles = |arm| grid.metrics_for(kernel, &arm_options(arm, m)).cycles;
            rows.push(Row {
                machine: m.spec().to_string(),
                kernel: kernel.clone(),
                ts: cycles(SchedulerKind::Traditional),
                bs: cycles(SchedulerKind::Balanced),
                ex: cycles(SchedulerKind::Exact),
            });
        }
    }
    let mut totals: Vec<(String, Totals)> = Vec::new();
    for r in &rows {
        if totals.last().map(|(m, _)| m.as_str()) != Some(r.machine.as_str()) {
            totals.push((r.machine.clone(), Totals::default()));
        }
        let t = &mut totals.last_mut().expect("just pushed").1;
        t.ts += r.ts;
        t.bs += r.bs;
        t.ex += r.ex;
    }

    let mut out = String::new();
    if cli.csv {
        let _ = writeln!(
            out,
            "machine,kernel,ts_cycles,bs_cycles,ex_cycles,bs_gain_pct,ex_gain_pct"
        );
        for r in &rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{:.2},{:.2}",
                r.machine,
                r.kernel,
                r.ts,
                r.bs,
                r.ex,
                r.bs_gain(),
                r.ex_gain(),
            );
        }
        print!("{out}");
        bsched_bench::write_results("machines.csv", &out);
    } else {
        let _ = writeln!(
            out,
            "{:22} {:10} {:>10} {:>10} {:>10} {:>8} {:>8}",
            "machine", "kernel", "TS", "BS", "EX", "BSgain%", "EXgain%"
        );
        for r in &rows {
            let _ = writeln!(
                out,
                "{:22} {:10} {:>10} {:>10} {:>10} {:>8.2} {:>8.2}",
                r.machine,
                r.kernel,
                r.ts,
                r.bs,
                r.ex,
                r.bs_gain(),
                r.ex_gain(),
            );
        }
        for (name, t) in &totals {
            let _ = writeln!(
                out,
                "{:22} {:10} {:>10} {:>10} {:>10} {:>8.2} {:>8.2}",
                name,
                "TOTAL",
                t.ts,
                t.bs,
                t.ex,
                100.0 * bsched_bench::pct_decrease(t.ts, t.bs),
                100.0 * bsched_bench::pct_decrease(t.ts, t.ex),
            );
        }
        print!("{out}");
    }

    grid.report().emit();
}
