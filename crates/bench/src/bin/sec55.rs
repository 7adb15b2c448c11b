//! Regenerates the paper's §5.5 comparison: balanced scheduling's
//! advantage under the Kerns–Eggers 1993 *simple* machine model (perfect
//! I-cache, single-cycle non-load operations) versus the full 21164
//! model. The paper estimates a 10% advantage under the simple model
//! shrinking to 4% under the real one, because fixed multi-cycle
//! latencies are work balanced scheduling does not (yet) hide.

use bsched_bench::Grid;
use bsched_harness::ExperimentCell;
use bsched_pipeline::table::{mean, ratio};
use bsched_pipeline::{CompileOptions, SchedulerKind, Table};
use bsched_sim::SimConfig;

fn main() {
    bsched_bench::cli::no_flags();
    // The four Perfect Club programs the two studies share are unnamed in
    // the paper; we use our Perfect Club kernels with substantial FP
    // latencies, where the model difference matters most.
    let names = ["ARC2D", "MDG", "QCD2", "TRFD"];
    let sims = [
        SimConfig::default().simple_model_1993(),
        SimConfig::default(),
    ];
    let grid = Grid::new();
    let kernels: Vec<String> = grid
        .kernel_names()
        .into_iter()
        .filter(|k| names.contains(&k.as_str()))
        .collect();

    // Exactly the 4 × 2 × 2 cells of this study, in one parallel batch.
    let mut cells = Vec::new();
    for kernel in &kernels {
        for sim in sims {
            for scheduler in [SchedulerKind::Balanced, SchedulerKind::Traditional] {
                cells.push(ExperimentCell::new(
                    kernel,
                    CompileOptions::new(scheduler).with_sim(sim),
                ));
            }
        }
    }
    grid.prefetch_cells(&cells);

    let mut t = Table::new(
        "Section 5.5: simple (KE93) vs full (21164) machine model — BS:TS speedup",
        &["Benchmark", "simple model", "full model"],
    );
    let mut simple_all = Vec::new();
    let mut full_all = Vec::new();
    for kernel in &kernels {
        let mut row = vec![kernel.clone()];
        for (vals, sim) in [(&mut simple_all, sims[0]), (&mut full_all, sims[1])] {
            let bs = grid.metrics_for(
                kernel,
                &CompileOptions::new(SchedulerKind::Balanced).with_sim(sim),
            );
            let ts = grid.metrics_for(
                kernel,
                &CompileOptions::new(SchedulerKind::Traditional).with_sim(sim),
            );
            let s = bs.speedup_over(&ts);
            vals.push(s);
            row.push(ratio(s));
        }
        t.row(row);
    }
    t.row(vec![
        "AVERAGE".into(),
        ratio(mean(&simple_all)),
        ratio(mean(&full_all)),
    ]);
    println!("{t}");
    println!(
        "Paper §5.5: \"balanced scheduling had a 10% advantage over\n\
         traditional scheduling with the simple model, but only 4% when\n\
         modeling the 21164\" — the simple model hides the fixed-latency\n\
         competition that dilutes balanced scheduling on real machines."
    );
    grid.report().emit();
}
