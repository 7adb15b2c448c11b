//! The benchmark's workloads, the cells each one runs, and the output
//! rows those cells produce (in the exact formats of the committed
//! `results/all_experiments.csv` and `results/machines.csv`).

use bsched_harness::ExperimentCell;
use bsched_pipeline::{
    standard_grid, CompileOptions, ExperimentConfig, MachineSpec, SchedulerKind,
};
use bsched_sim::SimMetrics;
use bsched_util::Prng;
use std::fmt::Write as _;

/// One named workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every [`Section`], each a cold pass in its own process.
    Grids,
    /// `bsched-serve` under a closed-loop seeded request mix.
    ServeMix,
}

/// One section of the `grids` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// The 255-cell paper grid, exact, cold caches.
    GridCold,
    /// The same grid under sampled simulation, plan build included.
    GridSampled,
    /// TS/BS/EX at LU 4 across every registry machine.
    MachineZoo,
}

/// The item of `all` named `name`, or a message listing the valid names.
fn parse_name<T: Copy>(all: &[T], name_of: fn(T) -> &'static str, name: &str) -> Result<T, String> {
    all.iter()
        .copied()
        .find(|&x| name_of(x) == name)
        .ok_or_else(|| {
            let valid: Vec<&str> = all.iter().map(|&x| name_of(x)).collect();
            format!("unknown name {name:?}; valid: {}", valid.join(", "))
        })
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Grids, Workload::ServeMix];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grids => "grids",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Parses a command-line name.
    ///
    /// # Errors
    ///
    /// A message listing the valid names.
    pub fn parse(name: &str) -> Result<Workload, String> {
        parse_name(&Workload::ALL, Workload::name, name)
    }
}

impl Section {
    /// Every section, in the order a `grids` iteration runs them.
    pub const ALL: [Section; 3] = [Section::GridCold, Section::GridSampled, Section::MachineZoo];

    /// The section's name, as a pass process takes it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Section::GridCold => "grid_cold",
            Section::GridSampled => "grid_sampled",
            Section::MachineZoo => "machine_zoo",
        }
    }

    /// Parses a section name.
    ///
    /// # Errors
    ///
    /// A message listing the valid names.
    pub fn parse(name: &str) -> Result<Section, String> {
        parse_name(&Section::ALL, Section::name, name)
    }
}

/// Kernel names in the paper's Table 1 order.
#[must_use]
pub fn kernel_names() -> Vec<&'static str> {
    bsched_workloads::all_kernels()
        .iter()
        .map(|k| k.name)
        .collect()
}

/// The 255 grid cells (17 kernels × 15 configurations) in the
/// canonical kernel × configuration order of `all_experiments`.
#[must_use]
pub fn grid_cells() -> Vec<(ExperimentCell, ExperimentConfig)> {
    let configs = standard_grid();
    kernel_names()
        .into_iter()
        .flat_map(|k| {
            configs
                .iter()
                .map(move |c| (ExperimentCell::new(k, c.options()), *c))
        })
        .collect()
}

/// The three scheduler arms the machine zoo compares.
pub const ZOO_ARMS: [SchedulerKind; 3] = [
    SchedulerKind::Traditional,
    SchedulerKind::Balanced,
    SchedulerKind::Exact,
];

/// Every registered machine, in registry order.
#[must_use]
pub fn zoo_machines() -> Vec<MachineSpec> {
    MachineSpec::registry()
        .iter()
        .map(|m| MachineSpec::named(m.name).expect("registry names parse"))
        .collect()
}

/// The options of one zoo arm on one machine (the `machines` binary's
/// LU 4 headline level).
#[must_use]
pub fn zoo_options(arm: SchedulerKind, machine: &MachineSpec) -> CompileOptions {
    CompileOptions::new(arm)
        .with_unroll(4)
        .with_sim(machine.config())
}

/// The 306 zoo cells in machine × kernel × arm order.
#[must_use]
pub fn zoo_cells() -> Vec<ExperimentCell> {
    let kernels = kernel_names();
    zoo_machines()
        .iter()
        .flat_map(|m| {
            kernels.iter().flat_map(move |k| {
                ZOO_ARMS
                    .iter()
                    .map(move |&arm| ExperimentCell::new(k, zoo_options(arm, m)))
            })
        })
        .collect()
}

/// A seeded Fisher–Yates permutation of `items`: the order cells are
/// submitted in. Outputs are printed in canonical order regardless.
#[must_use]
pub fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut v = items.to_vec();
    let mut rng = Prng::new(seed ^ 0x5eed_ce11);
    for i in (1..v.len()).rev() {
        v.swap(i, rng.index(i + 1));
    }
    v
}

/// The `all_experiments --csv` header.
pub const GRID_HEADER: &str = "kernel,config,scheduler,cycles,load_interlock,fixed_interlock,\
branch_penalty,fetch_stall,tlb_stall,dyn_insts,loads,stores,branches,spills,l1d_hit_rate";

/// One `all_experiments --csv` row (no trailing newline).
#[must_use]
pub fn grid_row(kernel: &str, cfg: ExperimentConfig, m: &SimMetrics) -> String {
    format!(
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
}

/// The full grid CSV, header included, for metrics in
/// [`grid_cells`] order.
#[must_use]
pub fn grid_csv(cells: &[(ExperimentCell, ExperimentConfig)], metrics: &[SimMetrics]) -> String {
    let mut out = format!("{GRID_HEADER}\n");
    for ((cell, cfg), m) in cells.iter().zip(metrics) {
        let _ = writeln!(out, "{}", grid_row(cell.kernel(), *cfg, m));
    }
    out
}

/// The `machines --csv` header.
pub const ZOO_HEADER: &str = "machine,kernel,ts_cycles,bs_cycles,ex_cycles,bs_gain_pct,ex_gain_pct";

/// Percent cycle reduction from `from` to `to` (the `machines` gain).
fn gain_pct(from: u64, to: u64) -> f64 {
    if from == 0 {
        0.0
    } else {
        100.0 * (from as f64 - to as f64) / from as f64
    }
}

/// One `machines --csv` row (no trailing newline).
#[must_use]
pub fn zoo_row(machine: &str, kernel: &str, ts: u64, bs: u64, ex: u64) -> String {
    format!(
        "{machine},{kernel},{ts},{bs},{ex},{:.2},{:.2}",
        gain_pct(ts, bs),
        gain_pct(ts, ex)
    )
}

/// The full machines CSV, header included, from cycles in
/// [`zoo_cells`] order.
#[must_use]
pub fn zoo_csv(cycles: &[u64]) -> String {
    let mut out = format!("{ZOO_HEADER}\n");
    let kernels = kernel_names();
    let mut it = cycles.chunks(ZOO_ARMS.len());
    for m in zoo_machines() {
        for k in &kernels {
            let arms = it.next().expect("one cycle count per zoo cell");
            let _ = writeln!(out, "{}", zoo_row(m.spec(), k, arms[0], arms[1], arms[2]));
        }
    }
    out
}
