//! Runs the full experiment grid (17 kernels × 15 configurations) and
//! prints one metric line per run — the raw data behind Tables 4–9.
//!
//! The whole deduplicated grid executes up front on the harness's
//! work-stealing pool; results come back in deterministic kernel ×
//! configuration order regardless of worker count. In
//! `--csv` mode the same bytes also land in `results/all_experiments.csv`
//! (`results/all_experiments_sampled.csv` for a sampled run, so estimates
//! never overwrite the exact table).
//! The harness run report goes to stderr so stdout stays byte-identical
//! across runs.
//!
//! `--kernels NAME,NAME,...` (or `--kernels=NAME,...`) restricts the
//! grid to a subset (used by `scripts/ci.sh` for a fast smoke run).
//! Unknown names — and an empty list — are rejected with the list of
//! valid choices and exit code 2.
//!
//! `--sample` (or `--sample=SPEC`, or `BSCHED_SAMPLE=SPEC`) switches
//! execution to sampled simulation: cycle-level metrics become
//! estimates extrapolated from representative intervals (instruction
//! counts and checksums stay exact; see DESIGN.md §13). Like tracing,
//! the mode is execution-only — it never enters a cell key. A bare
//! `--sample` uses the default configuration; a spec
//! like `k=8,interval=1000` overrides it. Invalid specs are rejected
//! with the valid format and exit code 2.
//!
//! `--machine NAME[+mods]` (or `--machine=SPEC`, or
//! `BSCHED_MACHINE=SPEC`) re-targets the whole grid at a registered
//! machine description — e.g. `alpha21264` or
//! `alpha21164+bp=gshare+iw=4+ports=2` (see `bsched_sim::MachineSpec`).
//! Unknown names and malformed modifiers are rejected with the valid
//! choices and exit code 2. The flag beats the environment variable.
//!
//! `--verify` runs the `bsched-verify` conformance suite on every
//! executed cell (schedule legality, weight cross-check, differential
//! replay, engine cross-check, metamorphic invariants);
//! `BSCHED_VERIFY=1` does the same.
//! `--fuzz N` additionally runs an N-iteration pipeline-fuzzing
//! campaign after the grid (`--fuzz-seed HEX` and `--fuzz-seconds S`
//! control the seed and a wall-clock budget). Verification output goes
//! to stderr; any violation or fuzz failure exits nonzero.
//!
//! Every flag also takes the `--flag=value` spelling; a missing value or
//! an unknown flag exits 2 (`bsched_bench::cli`).

use bsched_bench::cli::{self, Args};
use bsched_bench::Grid;
use bsched_harness::{Engine, EngineConfig, ExperimentCell};
use bsched_pipeline::standard_grid;
use std::fmt::Write as _;

#[derive(Default)]
struct Cli {
    csv: bool,
    verify: bool,
    sample: Option<bsched_pipeline::SampleConfig>,
    machine: Option<bsched_pipeline::MachineSpec>,
    kernels: Vec<String>,
    fuzz: Option<u64>,
    fuzz_seed: u64,
    fuzz_seconds: Option<u64>,
    trace_json: Option<String>,
    trace_chrome: Option<String>,
    trace_summary: bool,
}

/// Fails fast (exit 2) when a trace export path cannot be opened for
/// writing, before any cell executes.
fn ensure_writable(flag: &str, path: &str) {
    // A writability probe must not clobber an existing file's contents.
    let probe = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path);
    if let Err(e) = probe {
        eprintln!("{flag}: cannot write {path}: {e}");
        std::process::exit(2);
    }
}

impl Cli {
    /// Walks the command line (`bsched_bench::cli`); exits 2 on bad flags.
    fn parse() -> Cli {
        let mut cli = Cli {
            kernels: cli::all_kernel_names(),
            fuzz_seed: 0xB5ED,
            ..Cli::default()
        };
        let number = |flag: &str, v: &str| cli::parse_u64(flag, v, "a number");
        let mut args = Args::from_env();
        while let Some(flag) = args.next_flag() {
            match flag.as_str() {
                "--csv" => cli.csv = true,
                "--verify" => cli.verify = true,
                "--sample" => {
                    let spec = args.optional_value();
                    cli.sample =
                        Some(spec.map_or_else(Default::default, |v| cli::parse_sample(&v)));
                }
                "--machine" => cli.machine = Some(cli::parse_machine(&args.value())),
                "--kernels" => cli.kernels = cli::parse_kernel_list(&args.value()),
                "--fuzz" => cli.fuzz = Some(number(&flag, &args.value())),
                "--fuzz-seed" => cli.fuzz_seed = number(&flag, &args.value()),
                "--fuzz-seconds" => cli.fuzz_seconds = Some(number(&flag, &args.value())),
                "--trace-json" => cli.trace_json = Some(args.value()),
                "--trace-chrome" => cli.trace_chrome = Some(args.value()),
                "--trace-summary" => cli.trace_summary = true,
                _ => args.unknown(),
            }
        }
        if let Some(path) = &cli.trace_json {
            ensure_writable("--trace-json", path);
        }
        if let Some(path) = &cli.trace_chrome {
            ensure_writable("--trace-chrome", path);
        }
        cli
    }

    /// Whether any tracing sink was requested (turns the recorder on).
    fn tracing(&self) -> bool {
        self.trace_json.is_some() || self.trace_chrome.is_some() || self.trace_summary
    }
}

/// Renders the harness run report — plus trace exports and the trace
/// summary when requested — and emits everything to stderr in one
/// atomic write.
fn finish(grid: &Grid, cli: &Cli) {
    let mut err = grid.report().render();
    if cli.tracing() {
        let trace = bsched_trace::TraceReport::new(bsched_trace::drain());
        if let Some(path) = &cli.trace_json {
            match std::fs::write(path, trace.to_json_string()) {
                Ok(()) => {
                    let _ = writeln!(err, "wrote trace {path} ({} events)", trace.events().len());
                }
                Err(e) => {
                    let _ = writeln!(err, "could not write trace {path}: {e}");
                }
            }
        }
        if let Some(path) = &cli.trace_chrome {
            match std::fs::write(path, trace.to_chrome_json_string()) {
                Ok(()) => {
                    let _ = writeln!(err, "wrote chrome trace {path}");
                }
                Err(e) => {
                    let _ = writeln!(err, "could not write chrome trace {path}: {e}");
                }
            }
        }
        if cli.trace_summary {
            err.push_str(&trace.summary());
        }
    }
    bsched_harness::emit_stderr(&err);
}

fn run_fuzz(grid: &Grid, cli: &Cli) {
    let Some(iterations) = cli.fuzz else { return };
    let mut cfg = bsched_verify::FuzzConfig::new(cli.fuzz_seed).with_iterations(iterations);
    if let Some(secs) = cli.fuzz_seconds {
        cfg = cfg.with_time_budget(std::time::Duration::from_secs(secs));
    }
    let report = bsched_verify::fuzz(&cfg);
    grid.engine().record_fuzz(report.iterations);
    if !report.failures.is_empty() {
        let mut err = String::new();
        for f in &report.failures {
            let _ = writeln!(
                err,
                "fuzz failure at iteration {} ({}): {}",
                f.iteration,
                f.label,
                f.messages.join("; ")
            );
            let _ = writeln!(err, "{}", f.reproducer);
        }
        err.push_str(&grid.report().render());
        bsched_harness::emit_stderr(&err);
        std::process::exit(1);
    }
}

fn main() {
    let cli = Cli::parse();
    if cli.tracing() {
        bsched_trace::set_enabled(true);
    }

    let mut engine_cfg = EngineConfig::from_env();
    engine_cfg.verify = engine_cfg.verify || cli.verify;
    if let Some(sample) = cli.sample {
        // The flag beats BSCHED_SAMPLE.
        engine_cfg.sim_mode = bsched_pipeline::SimMode::Sampled(sample);
    }
    // The flag beats BSCHED_MACHINE.
    let machine = cli.machine.clone().or_else(|| {
        bsched_pipeline::MachineSpec::from_env()
            .unwrap_or_else(|e| bsched_util::spec::exit2("BSCHED_MACHINE", &e))
    });
    let mut grid = Grid::with_engine(Engine::with_standard_kernels(engine_cfg));
    if let Some(m) = machine {
        eprintln!("machine: {m}");
        grid = grid.with_machine(m);
    }
    let configs = standard_grid();
    let kernels = &cli.kernels;
    let cells: Vec<ExperimentCell> = kernels
        .iter()
        .flat_map(|k| {
            configs
                .iter()
                .map(|c| ExperimentCell::new(k, grid.resolve_options(&c.options())))
        })
        .collect();
    grid.prefetch_cells(&cells);

    let out = bsched_bench::render_grid(kernels, &configs, cli.csv, |k, c| grid.metrics(k, c));
    print!("{out}");
    if cli.csv {
        let file = if grid.engine().config().sim_mode.is_sampled() {
            "all_experiments_sampled.csv"
        } else {
            "all_experiments.csv"
        };
        bsched_bench::write_results(file, &out);
    }
    run_fuzz(&grid, &cli);
    finish(&grid, &cli);
}
