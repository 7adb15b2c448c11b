//! Regenerates the paper's Table 5: balanced (BS) vs traditional (TS)
//! scheduling under loop unrolling — total-cycle speedup, percentage
//! reduction in load interlock cycles, and load interlocks as a
//! percentage of total cycles.

use bsched_bench::{pct_decrease, Grid};
use bsched_pipeline::table::{mean, pct, ratio};
use bsched_pipeline::{ConfigKind, ExperimentConfig, SchedulerKind, Table};

fn main() {
    bsched_bench::cli::no_flags();
    let grid = Grid::new();
    let mut warm = Vec::new();
    for scheduler in [SchedulerKind::Traditional, SchedulerKind::Balanced] {
        for kind in [ConfigKind::Base, ConfigKind::Lu(4), ConfigKind::Lu(8)] {
            warm.push(ExperimentConfig { scheduler, kind });
        }
    }
    grid.prefetch(&warm);
    let mut t = Table::new(
        "Table 5: BS vs TS for loop unrolling",
        &[
            "Benchmark",
            "speedup noLU",
            "speedup LU4",
            "speedup LU8",
            "dLI noLU",
            "dLI LU4",
            "dLI LU8",
            "LI% BS noLU",
            "LI% TS noLU",
            "LI% BS LU4",
            "LI% TS LU4",
            "LI% BS LU8",
            "LI% TS LU8",
        ],
    );
    let kinds = [ConfigKind::Base, ConfigKind::Lu(4), ConfigKind::Lu(8)];
    let mut avgs = vec![Vec::new(); 12];
    for kernel in grid.kernel_names() {
        let mut row = vec![kernel.clone()];
        let mut cells: Vec<f64> = Vec::new();
        for kind in kinds {
            let bs = grid.bs(&kernel, kind);
            let ts = grid.ts(&kernel, kind);
            cells.push(bs.speedup_over(&ts));
            let _ = ts;
        }
        for kind in kinds {
            let bs = grid.bs(&kernel, kind);
            let ts = grid.ts(&kernel, kind);
            cells.push(pct_decrease(ts.load_interlock, bs.load_interlock));
        }
        for kind in kinds {
            let bs = grid.bs(&kernel, kind);
            let ts = grid.ts(&kernel, kind);
            cells.push(bs.load_interlock_fraction());
            cells.push(ts.load_interlock_fraction());
        }
        for (k, v) in cells.iter().enumerate() {
            avgs[k].push(*v);
            row.push(if k < 3 { ratio(*v) } else { pct(*v) });
        }
        t.row(row);
    }
    let mut avg_row = vec!["AVERAGE".to_string()];
    for (k, v) in avgs.iter().enumerate() {
        let m = mean(v);
        avg_row.push(if k < 3 { ratio(m) } else { pct(m) });
    }
    t.row(avg_row);
    println!("{t}");
    grid.report().emit();
}
