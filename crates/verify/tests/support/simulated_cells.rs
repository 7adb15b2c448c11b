//! Every `(kernel, options)` cell the experiment binaries simulate,
//! shared by the test suites that must cover all of them.

use bsched_core::SchedulerKind::{self, Balanced, Exact, Traditional};
use bsched_pipeline::{standard_grid, CompileOptions, MachineSpec, TieBreak};
use bsched_sim::SimConfig;

/// The suite-kernel cells of `ablations`, each on the machine it
/// simulates.
fn ablation_cells() -> Vec<(&'static str, CompileOptions)> {
    let bs = || CompileOptions::new(Balanced);
    let mut cells = vec![
        ("tomcatv", bs().with_locality()),
        ("tomcatv", bs().with_locality().without_selective()),
        ("swm256", bs().with_unroll(4)),
        ("ARC2D", bs()),
        (
            "ARC2D",
            bs().with_sim(SimConfig::default().with_ifetch(false)),
        ),
    ];
    for cap in [2u32, 4, 10, 50] {
        cells.push(("hydro2d", bs().with_weight_cap(cap)));
    }
    for mshrs in [1usize, 2, 6] {
        let sim = SimConfig::default().with_mshrs(mshrs);
        cells.push(("dnasa7", bs().with_sim(sim)));
        cells.push(("dnasa7", CompileOptions::new(Traditional).with_sim(sim)));
    }
    for tb in [
        TieBreak::Standard,
        TieBreak::ExposedFirst,
        TieBreak::ProgramOrder,
    ] {
        cells.push(("dnasa7", bs().with_unroll(4).with_tie_break(tb)));
    }
    for budget in [32usize, 64, 128, 256] {
        cells.push(("tomcatv", bs().with_unroll(4).with_unroll_budget(budget)));
    }
    for entries in [1u32, 2, 6] {
        let mut sim = SimConfig::default();
        sim.mem = sim.mem.with_write_buffer(entries);
        cells.push(("swm256", bs().with_unroll(4).with_sim(sim)));
    }
    cells
}

/// The standard grid (`all_experiments` and the table binaries), the
/// machine zoo (`machines`), the `superscalar` sweep and the
/// `ablations` cells, in that order, duplicates included.
pub fn simulated_cells() -> Vec<(&'static str, CompileOptions)> {
    let kernels: Vec<&str> = bsched_workloads::all_kernels()
        .iter()
        .map(|k| k.name)
        .collect();
    let lu4 = |arm: SchedulerKind, sim| CompileOptions::new(arm).with_unroll(4).with_sim(sim);
    // `all_experiments` and the table binaries: the standard grid.
    let mut cells = Vec::new();
    for &k in &kernels {
        cells.extend(standard_grid().iter().map(|c| (k, c.options())));
    }
    assert_eq!(cells.len(), 255, "17 kernels x 15 configurations");
    // `machines`: the three judged arms at LU 4 on every registry machine.
    for info in MachineSpec::registry() {
        let sim = MachineSpec::named(info.name)
            .expect("registry names parse")
            .config();
        for &k in &kernels {
            cells.extend([Traditional, Balanced, Exact].map(|arm| (k, lu4(arm, sim))));
        }
    }
    assert_eq!(cells.len(), 255 + 306, "17 kernels x 3 arms x 6 machines");
    // `superscalar`: issue widths 1, 2 and 4, then 1-4 memory ports at
    // width 4, under both heuristics.
    let widths = [1u32, 2, 4].map(|w| SimConfig::default().with_issue(w, (w / 2).max(1)));
    let ports = [1u32, 2, 3, 4].map(|p| SimConfig::default().with_issue(4, p));
    for sim in widths.into_iter().chain(ports) {
        for &k in &kernels {
            cells.extend([Balanced, Traditional].map(|arm| (k, lu4(arm, sim))));
        }
    }
    cells.extend(ablation_cells());
    cells
}
