//! Regenerates the paper's Table 7: speedup of balanced scheduling over
//! traditional scheduling, without trace scheduling (LU 0/4/8) and with
//! it (LU 4/8).

use bsched_bench::Grid;
use bsched_pipeline::table::{mean, ratio};
use bsched_pipeline::{ConfigKind, ExperimentConfig, SchedulerKind, Table};

fn main() {
    bsched_bench::cli::no_flags();
    let grid = Grid::new();
    let kinds = [
        ConfigKind::Base,
        ConfigKind::Lu(4),
        ConfigKind::Lu(8),
        ConfigKind::TrsLu(4),
        ConfigKind::TrsLu(8),
    ];
    let mut warm = Vec::new();
    for scheduler in [SchedulerKind::Traditional, SchedulerKind::Balanced] {
        for kind in kinds {
            warm.push(ExperimentConfig { scheduler, kind });
        }
    }
    grid.prefetch(&warm);
    let mut t = Table::new(
        "Table 7: Speedup of balanced over traditional scheduling",
        &["Benchmark", "No LU", "LU 4", "LU 8", "TrS+LU 4", "TrS+LU 8"],
    );
    let mut avg = vec![Vec::new(); kinds.len()];
    for kernel in grid.kernel_names() {
        let mut row = vec![kernel.clone()];
        for (k, kind) in kinds.iter().enumerate() {
            let bs = grid.bs(&kernel, *kind);
            let ts = grid.ts(&kernel, *kind);
            let s = bs.speedup_over(&ts);
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
