//! Regenerates the paper's Table 9: summary of the locality-analysis
//! results — speedups relative to locality analysis alone and relative to
//! balanced scheduling with no other optimizations.

use bsched_bench::Grid;
use bsched_pipeline::table::{mean, ratio};
use bsched_pipeline::{ConfigKind, ExperimentConfig, SchedulerKind, Table};

fn main() {
    bsched_bench::cli::no_flags();
    let grid = Grid::new();
    grid.prefetch(
        &[
            ConfigKind::Base,
            ConfigKind::La,
            ConfigKind::LaLu(4),
            ConfigKind::LaLu(8),
            ConfigKind::LaTrsLu(4),
            ConfigKind::LaTrsLu(8),
        ]
        .map(|kind| ExperimentConfig {
            scheduler: SchedulerKind::Balanced,
            kind,
        }),
    );
    let rows = [
        ("Locality analysis", ConfigKind::La),
        (
            "Locality analysis with loop unrolling by 4",
            ConfigKind::LaLu(4),
        ),
        (
            "Locality analysis with loop unrolling by 8",
            ConfigKind::LaLu(8),
        ),
        (
            "Locality analysis with trace scheduling and loop unrolling by 4",
            ConfigKind::LaTrsLu(4),
        ),
        (
            "Locality analysis with trace scheduling and loop unrolling by 8",
            ConfigKind::LaTrsLu(8),
        ),
    ];
    let mut t = Table::new(
        "Table 9: Summary comparison of locality analysis results",
        &[
            "Optimizations",
            "speedup vs LA alone",
            "speedup vs BS alone (no LU, no TrS)",
        ],
    );
    let kernels = grid.kernel_names();
    for (label, kind) in rows {
        let mut vs_la = Vec::new();
        let mut vs_bs = Vec::new();
        for kernel in &kernels {
            let m = grid.bs(kernel, kind);
            let la = grid.bs(kernel, ConfigKind::La);
            let bs = grid.bs(kernel, ConfigKind::Base);
            vs_la.push(m.speedup_over(&la));
            vs_bs.push(m.speedup_over(&bs));
        }
        let col1 = if kind == ConfigKind::La {
            "n.a.".to_string()
        } else {
            ratio(mean(&vs_la))
        };
        t.row(vec![label.to_string(), col1, ratio(mean(&vs_bs))]);
    }
    println!("{t}");
    grid.report().emit();
}
