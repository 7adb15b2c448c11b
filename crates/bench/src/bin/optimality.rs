//! The optimality-bound table: how close each heuristic scheduler comes
//! to the exact branch-and-bound optimum, kernel by kernel.
//!
//! For every kernel × optimization combination of the standard grid the
//! binary compiles the program twice per row: once under the heuristic
//! arm being judged and once under [`SchedulerKind::Exact`] with the
//! chosen node budget. Both compiles run identical pre-schedule passes,
//! so their regions align instruction for instruction; every heuristic
//! order is then costed under the plain balanced weight model — the
//! exact issue-span clock the search minimizes — and reported as a
//! percentage of the exact bound (100 = the heuristic matched the
//! proven optimum on every region; lower = headroom left on the table).
//! Every audited region, heuristic and exact alike, passes the
//! `bsched-verify` legality checker; any violation exits 1.
//!
//! Stdout is deterministic byte for byte: the budget's unit is search
//! nodes (never wall clock), so the table is machine-independent and
//! snapshot-tested like the paper tables.
//!
//! Flags:
//!
//! * `--kernels NAME,...` — restrict to a kernel subset (exit 2 with
//!   the valid choices on unknown names);
//! * `--budget N` — exact-search node budget per region (default
//!   `bsched_core::DEFAULT_EXACT_BUDGET`; exit 2 on non-numbers);
//! * `--schedulers LIST` — restrict the judged arms to a subset of
//!   `TS,BS,BS+LA` (exit 2 with the valid choices on unknown names);
//! * `--csv` — also write `results/optimality.csv` (`scripts/regen.sh`
//!   rewrites it and CI diffs it against the committed copy).
//!
//! Every flag also takes the `--flag=value` spelling; a missing value or
//! an unknown flag exits 2 (`bsched_bench::cli`).

use bsched_bench::cli::{self, Args};
use bsched_core::{compute_weights, schedule_cost, ExactStats, SchedulerKind, WeightConfig};
use bsched_ir::Dag;
use bsched_pipeline::{standard_grid, Experiment, ExperimentConfig};
use bsched_verify::validate_region_schedule;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One judged row: a heuristic arm on one kernel × combo, against the
/// exact bound of the same combo.
struct Row {
    kernel: String,
    config: String,
    arm: &'static str,
    arm_cost: u64,
    exact: ExactStats,
}

impl Row {
    fn pct(&self) -> f64 {
        if self.arm_cost == 0 {
            return 100.0;
        }
        100.0 * self.exact.exact_cost as f64 / self.arm_cost as f64
    }
}

/// The effective heuristic arm of a grid entry: locality analysis
/// promotes balanced scheduling to its selective variant, so the LA
/// rows judge `BS+LA` rather than plain `BS`.
fn arm_label(cfg: &ExperimentConfig) -> &'static str {
    if cfg.scheduler == SchedulerKind::Balanced && cfg.options().locality {
        "BS+LA"
    } else {
        cfg.scheduler.label()
    }
}

const VALID_ARMS: [&str; 3] = ["TS", "BS", "BS+LA"];

#[derive(Default)]
struct Cli {
    csv: bool,
    budget: u64,
    kernels: Vec<String>,
    arms: Option<Vec<String>>,
}

/// `--schedulers LIST` (exit 2 naming the valid arms).
fn parse_arm_list(raw: &str) -> Vec<String> {
    let arms: Vec<String> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    let valid = VALID_ARMS.join(", ");
    if let Some(a) = arms.iter().find(|a| !VALID_ARMS.contains(&a.as_str())) {
        eprintln!("--schedulers: unknown scheduler {a:?}; valid schedulers: {valid}");
        std::process::exit(2);
    }
    if arms.is_empty() {
        eprintln!("--schedulers requires at least one scheduler; valid schedulers: {valid}");
        std::process::exit(2);
    }
    arms
}

impl Cli {
    /// Walks the command line (`bsched_bench::cli`); exits 2 on bad flags.
    fn parse() -> Cli {
        let mut cli = Cli {
            budget: bsched_core::DEFAULT_EXACT_BUDGET,
            kernels: cli::all_kernel_names(),
            ..Cli::default()
        };
        let mut args = Args::from_env();
        while let Some(flag) = args.next_flag() {
            match flag.as_str() {
                "--csv" => cli.csv = true,
                "--budget" => {
                    let what = "a non-negative number of search nodes";
                    cli.budget = cli::parse_u64(&flag, &args.value(), what);
                }
                "--kernels" => cli.kernels = cli::parse_kernel_list(&args.value()),
                "--schedulers" => cli.arms = Some(parse_arm_list(&args.value())),
                _ => args.unknown(),
            }
        }
        cli
    }
}

/// Compiles a kernel under `opts` and returns the audit, with every
/// region proven legal (exit 1 otherwise — the table must never be
/// built on an illegal schedule).
fn audited_legal(
    kernel: &str,
    opts: bsched_pipeline::CompileOptions,
) -> bsched_core::ScheduleAudit {
    let session = Experiment::builder()
        .kernel(kernel)
        .compile_options(opts)
        .build()
        .unwrap_or_else(|e| {
            eprintln!("{kernel}: build failed: {e}");
            std::process::exit(1);
        });
    let (_, audit) = session.compile_audited().unwrap_or_else(|e| {
        eprintln!("{kernel}: compile failed: {e}");
        std::process::exit(1);
    });
    for (ri, region) in audit.regions.iter().enumerate() {
        let violations = validate_region_schedule(region);
        if !violations.is_empty() {
            eprintln!(
                "{kernel}/{}: region {ri} illegal: {violations:?}",
                opts.label()
            );
            std::process::exit(1);
        }
    }
    audit
}

/// Costs a heuristic audit's emitted orders under the plain balanced
/// weight model — the model the exact search optimizes — summed over
/// all regions.
fn arm_cost(audit: &bsched_core::ScheduleAudit) -> u64 {
    let balanced = WeightConfig::new(SchedulerKind::Balanced);
    audit
        .regions
        .iter()
        .map(|r| {
            let dag = Dag::new(&r.insts);
            let weights = compute_weights(&r.insts, &dag, &balanced);
            schedule_cost(&dag, &weights, &r.order)
        })
        .sum()
}

fn main() {
    let cli = Cli::parse();
    let kernels = &cli.kernels;
    let grid: Vec<ExperimentConfig> = standard_grid()
        .into_iter()
        .filter(|cfg| {
            cli.arms
                .as_ref()
                .is_none_or(|arms| arms.iter().any(|a| a == arm_label(cfg)))
        })
        .collect();

    // Exact bounds are per (kernel, optimization combo) — rows judging
    // different arms on the same combo share one search.
    let mut rows: Vec<Row> = Vec::new();
    for kernel in kernels {
        let mut bounds: BTreeMap<String, ExactStats> = BTreeMap::new();
        for cfg in &grid {
            let combo = cfg.kind.label();
            let exact = *bounds.entry(combo.clone()).or_insert_with(|| {
                let opts = cfg
                    .kind
                    .options(SchedulerKind::Exact)
                    .with_exact_budget(cli.budget);
                audited_legal(kernel, opts).exact
            });
            let heuristic = audited_legal(kernel, cfg.options());
            let cost = arm_cost(&heuristic);
            if cost < exact.exact_cost {
                eprintln!(
                    "{kernel}/{combo}: heuristic cost {cost} beats the exact bound {} — \
                     region mismatch or search bug",
                    exact.exact_cost
                );
                std::process::exit(1);
            }
            rows.push(Row {
                kernel: kernel.clone(),
                config: combo,
                arm: arm_label(cfg),
                arm_cost: cost,
                exact,
            });
        }
    }

    let mut out = String::new();
    if cli.csv {
        let _ = writeln!(
            out,
            "kernel,config,scheduler,budget,arm_cost,exact_cost,pct_of_optimal,\
             regions,proven,fallbacks,nodes"
        );
        for r in &rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{:.1},{},{},{},{}",
                r.kernel,
                r.config.replace(' ', ""),
                r.arm,
                cli.budget,
                r.arm_cost,
                r.exact.exact_cost,
                r.pct(),
                r.exact.regions,
                r.exact.proven,
                r.exact.fallbacks,
                r.exact.nodes,
            );
        }
        print!("{out}");
        bsched_bench::write_results("optimality.csv", &out);
    } else {
        let _ = writeln!(
            out,
            "{:10} {:12} {:>5} {:>9} {:>9} {:>6} {:>9} {:>10}",
            "kernel", "config", "sch", "armcost", "optimal", "pct", "proven", "nodes"
        );
        for r in &rows {
            let _ = writeln!(
                out,
                "{:10} {:12} {:>5} {:>9} {:>9} {:>6.1} {:>6}/{:<2} {:>10}",
                r.kernel,
                r.config,
                r.arm,
                r.arm_cost,
                r.exact.exact_cost,
                r.pct(),
                r.exact.proven,
                r.exact.regions,
                r.exact.nodes,
            );
        }
        print!("{out}");
    }
}
