//! Regenerates the paper's Table 8: summary comparison of balanced and
//! traditional scheduling across optimization levels.

use bsched_bench::{pct_decrease, Grid};
use bsched_pipeline::table::{mean, pct, ratio};
use bsched_pipeline::{ConfigKind, ExperimentConfig, SchedulerKind, Table};

fn main() {
    bsched_bench::cli::no_flags();
    let grid = Grid::new();
    let mut warm = Vec::new();
    for scheduler in [SchedulerKind::Traditional, SchedulerKind::Balanced] {
        for kind in [
            ConfigKind::Base,
            ConfigKind::Lu(4),
            ConfigKind::Lu(8),
            ConfigKind::TrsLu(4),
            ConfigKind::TrsLu(8),
        ] {
            warm.push(ExperimentConfig { scheduler, kind });
        }
    }
    grid.prefetch(&warm);
    let rows = [
        ("No optimizations", ConfigKind::Base),
        ("Loop unrolling by 4", ConfigKind::Lu(4)),
        ("Loop unrolling by 8", ConfigKind::Lu(8)),
        (
            "Trace scheduling with loop unrolling by 4",
            ConfigKind::TrsLu(4),
        ),
        (
            "Trace scheduling with loop unrolling by 8",
            ConfigKind::TrsLu(8),
        ),
    ];
    let mut t = Table::new(
        "Table 8: Summary comparison of balanced (BS) and traditional (TS) scheduling",
        &[
            "Optimizations (in addition to scheduling)",
            "BS:TS speedup",
            "% decr. load interlocks (BS vs TS)",
            "speedup vs BS alone",
            "% decr. load interlocks vs BS alone",
            "LI % of cycles (BS)",
            "LI % of cycles (TS)",
        ],
    );
    let kernels = grid.kernel_names();
    for (label, kind) in rows {
        let mut speedups = Vec::new();
        let mut dli_vs_ts = Vec::new();
        let mut speedup_vs_base = Vec::new();
        let mut dli_vs_base = Vec::new();
        let mut li_bs = Vec::new();
        let mut li_ts = Vec::new();
        for kernel in &kernels {
            let bs = grid.bs(kernel, kind);
            let ts = grid.ts(kernel, kind);
            let base = grid.bs(kernel, ConfigKind::Base);
            speedups.push(bs.speedup_over(&ts));
            dli_vs_ts.push(pct_decrease(ts.load_interlock, bs.load_interlock));
            speedup_vs_base.push(bs.speedup_over(&base));
            dli_vs_base.push(pct_decrease(base.load_interlock, bs.load_interlock));
            li_bs.push(bs.load_interlock_fraction());
            li_ts.push(ts.load_interlock_fraction());
        }
        let (s4, s5) = if kind == ConfigKind::Base {
            ("n.a.".to_string(), "n.a.".to_string())
        } else {
            (ratio(mean(&speedup_vs_base)), pct(mean(&dli_vs_base)))
        };
        t.row(vec![
            label.to_string(),
            ratio(mean(&speedups)),
            pct(mean(&dli_vs_ts)),
            s4,
            s5,
            pct(mean(&li_bs)),
            pct(mean(&li_ts)),
        ]);
    }
    println!("{t}");
    grid.report().emit();
}
