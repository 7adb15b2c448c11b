//! The simulator's proof-free decode as an oracle over every cell the
//! experiment binaries simulate.
//!
//! Every run simulates on the default decode, which elides work its
//! decode proofs show cannot change a result; `SimEngine::Interpret` is
//! the same timing loop with every proof off. This suite compiles each
//! kernel × options once and runs [`check_engines`] on the compiled
//! program for every machine a binary simulates it on. Any differing
//! metric or checksum fails it. It is `#[ignore]`d in the default run;
//! run it with
//! `cargo test --release -p bsched-verify --test engine_oracle -- --ignored`.

use bsched_core::SchedulerKind::{self, Balanced, Exact, Traditional};
use bsched_pipeline::{standard_grid, CompileOptions, Experiment, MachineSpec, TieBreak};
use bsched_sim::SimConfig;
use bsched_verify::check_engines;
use std::collections::BTreeMap;

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

#[test]
#[ignore = "compiles every simulated kernel x options; use --release -- --ignored"]
fn every_simulated_cell_matches_the_proof_free_oracle() {
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

    // Compilation reads no machine (`CompileOptions::compile_key`), so
    // the cells group into one compile per kernel x options, each
    // carrying the distinct machines it runs on.
    let mut groups: BTreeMap<(&str, String), (CompileOptions, Vec<SimConfig>)> = BTreeMap::new();
    for (kernel, options) in &cells {
        let key = (*kernel, format!("{:?}", options.compile_key()));
        let (_, machines) = groups.entry(key).or_insert((*options, Vec::new()));
        if !machines.contains(&options.sim) {
            machines.push(options.sim);
        }
    }

    let mut checked = 0;
    let mut failures = Vec::new();
    for ((kernel, _), (options, machines)) in &groups {
        let label = options.label();
        let compiled = Experiment::builder()
            .kernel(*kernel)
            .compile_options(*options)
            .build()
            .expect("suite kernels build")
            .compile()
            .unwrap_or_else(|e| panic!("{kernel}/{label}: compile failed: {e}"));
        for sim in machines {
            checked += 1;
            let cell = format!("{kernel}/{label} on {sim:?}");
            match check_engines(&compiled.program, *sim) {
                Ok(vs) => failures.extend(vs.iter().map(|v| format!("{cell}: {v}"))),
                Err(e) => failures.push(format!("{cell}: simulation failed: {e}")),
            }
        }
    }
    assert_eq!((groups.len(), checked), (282, 647), "compiles and cells");
    assert!(
        failures.is_empty(),
        "{} of {checked} cells differ from the proof-free oracle; first: {:#?}",
        failures.len(),
        &failures[..failures.len().min(5)]
    );
}
