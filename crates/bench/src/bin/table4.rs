//! Regenerates the paper's Table 4: balanced scheduling under loop
//! unrolling — speedup in total cycles, percentage decrease in dynamic
//! instruction count, and percentage decrease in load interlock cycles
//! for unrolling factors 4 and 8, relative to no unrolling.

use bsched_bench::{pct_decrease, Grid};
use bsched_pipeline::table::{mean, pct, ratio};
use bsched_pipeline::{ConfigKind, ExperimentConfig, SchedulerKind, Table};

fn main() {
    bsched_bench::cli::no_flags();
    let grid = Grid::new();
    grid.prefetch(
        &[ConfigKind::Base, ConfigKind::Lu(4), ConfigKind::Lu(8)].map(|kind| ExperimentConfig {
            scheduler: SchedulerKind::Balanced,
            kind,
        }),
    );
    let mut t = Table::new(
        "Table 4: Balanced scheduling — effect of loop unrolling (relative to no unrolling)",
        &[
            "Benchmark",
            "Total cycles (noLU)",
            "speedup LU4",
            "speedup LU8",
            "dyn insts (noLU)",
            "dInsts LU4",
            "dInsts LU8",
            "load interlocks (noLU)",
            "dLI LU4",
            "dLI LU8",
        ],
    );
    let mut avg = vec![Vec::new(); 6];
    for kernel in grid.kernel_names() {
        let base = grid.bs(&kernel, ConfigKind::Base);
        let lu4 = grid.bs(&kernel, ConfigKind::Lu(4));
        let lu8 = grid.bs(&kernel, ConfigKind::Lu(8));
        let cells = [
            lu4.speedup_over(&base),
            lu8.speedup_over(&base),
            pct_decrease(base.insts.total(), lu4.insts.total()),
            pct_decrease(base.insts.total(), lu8.insts.total()),
            pct_decrease(base.load_interlock, lu4.load_interlock),
            pct_decrease(base.load_interlock, lu8.load_interlock),
        ];
        for (k, v) in cells.iter().enumerate() {
            avg[k].push(*v);
        }
        t.row(vec![
            kernel.clone(),
            base.cycles.to_string(),
            ratio(cells[0]),
            ratio(cells[1]),
            base.insts.total().to_string(),
            pct(cells[2]),
            pct(cells[3]),
            base.load_interlock.to_string(),
            pct(cells[4]),
            pct(cells[5]),
        ]);
    }
    t.row(vec![
        "AVERAGE".into(),
        String::new(),
        ratio(mean(&avg[0])),
        ratio(mean(&avg[1])),
        String::new(),
        pct(mean(&avg[2])),
        pct(mean(&avg[3])),
        String::new(),
        pct(mean(&avg[4])),
        pct(mean(&avg[5])),
    ]);
    println!("{t}");
    grid.report().emit();
}
