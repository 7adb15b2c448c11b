//! The paper's stated future work (§6): "we intend to examine its
//! effects on wider-issue (superscalar) processors that require
//! considerable instruction-level parallelism to perform well."
//!
//! This binary sweeps the in-order issue width (1 = the paper's machine,
//! 2, 4) and reports the average BS:TS speedup per width.
//!
//! `--ports` appends a second sweep that the old
//! `with_issue_width` API could not express: issue width fixed at 4
//! while the memory-port count varies independently (1–4), isolating
//! how much of the wide-issue gap is pure load/store bandwidth.

use bsched_bench::Grid;
use bsched_pipeline::table::{mean, ratio};
use bsched_pipeline::{CompileOptions, SchedulerKind, Table};
use bsched_sim::SimConfig;

fn speedup_table(grid: &Grid, title: &str, columns: &[String], sims: &[SimConfig]) -> Table {
    let mut header = vec!["Benchmark".to_string()];
    header.extend(columns.iter().cloned());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(title, &header_refs);
    let mut avgs = vec![Vec::new(); sims.len()];
    for kernel in grid.kernel_names() {
        let mut row = vec![kernel.clone()];
        for (k, sim) in sims.iter().enumerate() {
            let bs = grid.metrics_for(
                &kernel,
                &CompileOptions::new(SchedulerKind::Balanced)
                    .with_unroll(4)
                    .with_sim(*sim),
            );
            let ts = grid.metrics_for(
                &kernel,
                &CompileOptions::new(SchedulerKind::Traditional)
                    .with_unroll(4)
                    .with_sim(*sim),
            );
            let s = bs.speedup_over(&ts);
            avgs[k].push(s);
            row.push(ratio(s));
        }
        t.row(row);
    }
    let mut avg_row = vec!["AVERAGE".to_string()];
    for a in &avgs {
        avg_row.push(ratio(mean(a)));
    }
    t.row(avg_row);
    t
}

fn main() {
    let mut ports_sweep = false;
    let mut args = bsched_bench::cli::Args::from_env();
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--ports" => ports_sweep = true,
            _ => args.unknown(),
        }
    }
    let widths = [1u32, 2, 4];
    let grid = Grid::new();

    let width_sims: Vec<SimConfig> = widths
        .iter()
        .map(|&w| SimConfig::default().with_issue(w, (w / 2).max(1)))
        .collect();
    let ports = [1u32, 2, 3, 4];
    let port_sims: Vec<SimConfig> = ports
        .iter()
        .map(|&p| SimConfig::default().with_issue(4, p))
        .collect();

    // All 17 kernels × sims × 2 schedulers, one parallel batch.
    let mut opts = Vec::new();
    let mut sims: Vec<&SimConfig> = width_sims.iter().collect();
    if ports_sweep {
        sims.extend(port_sims.iter());
    }
    for sim in sims {
        for scheduler in [SchedulerKind::Balanced, SchedulerKind::Traditional] {
            opts.push(CompileOptions::new(scheduler).with_unroll(4).with_sim(*sim));
        }
    }
    grid.prefetch_options(&opts);

    let t = speedup_table(
        &grid,
        "Future work (paper §6): BS:TS speedup vs in-order issue width (with LU4)",
        &widths
            .iter()
            .map(|w| format!("width {w}"))
            .collect::<Vec<_>>(),
        &width_sims,
    );
    println!("{t}");
    if ports_sweep {
        let t = speedup_table(
            &grid,
            "BS:TS speedup vs memory ports at issue width 4 (with LU4)",
            &ports
                .iter()
                .map(|p| format!("{p} ports"))
                .collect::<Vec<_>>(),
            &port_sims,
        );
        println!("{t}");
    }
    grid.report().emit();
}
