//! Regenerates the paper's Table 6: speedups over balanced scheduling
//! alone for combinations of loop unrolling (LU 4/8), trace scheduling
//! (TrS) and locality analysis (LA).

use bsched_bench::Grid;
use bsched_pipeline::table::{mean, ratio};
use bsched_pipeline::{ConfigKind, ExperimentConfig, SchedulerKind, Table};

fn main() {
    bsched_bench::cli::no_flags();
    let grid = Grid::new();
    let kinds = [
        ConfigKind::Lu(4),
        ConfigKind::Lu(8),
        ConfigKind::TrsLu(4),
        ConfigKind::TrsLu(8),
        ConfigKind::La,
        ConfigKind::LaLu(4),
        ConfigKind::LaLu(8),
        ConfigKind::LaTrsLu(4),
        ConfigKind::LaTrsLu(8),
    ];
    let warm: Vec<ExperimentConfig> = kinds
        .iter()
        .chain(std::iter::once(&ConfigKind::Base))
        .map(|&kind| ExperimentConfig {
            scheduler: SchedulerKind::Balanced,
            kind,
        })
        .collect();
    grid.prefetch(&warm);
    let mut headers = vec!["Benchmark".to_string()];
    headers.extend(kinds.iter().map(|k| k.label()));
    let hdr: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new("Table 6: Speedup over balanced scheduling alone", &hdr);

    let mut avg = vec![Vec::new(); kinds.len()];
    for kernel in grid.kernel_names() {
        let base = grid.bs(&kernel, ConfigKind::Base);
        let mut row = vec![kernel.clone()];
        for (k, kind) in kinds.iter().enumerate() {
            let m = grid.bs(&kernel, *kind);
            let s = m.speedup_over(&base);
            avg[k].push(s);
            row.push(ratio(s));
        }
        t.row(row);
    }
    let mut avg_row = vec!["AVERAGE".to_string()];
    for a in &avg {
        avg_row.push(ratio(mean(a)));
    }
    t.row(avg_row);
    println!("{t}");
    grid.report().emit();
}
