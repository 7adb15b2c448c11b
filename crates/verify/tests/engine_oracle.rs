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

#[path = "support/simulated_cells.rs"]
mod simulated_cells;

use bsched_pipeline::{CompileOptions, Experiment};
use bsched_sim::SimConfig;
use bsched_verify::check_engines;
use std::collections::HashMap;

#[test]
#[ignore = "compiles every simulated kernel x options; use --release -- --ignored"]
fn every_simulated_cell_matches_the_proof_free_oracle() {
    let cells = simulated_cells::simulated_cells();
    // Compilation reads no machine (`CompileOptions::compile_key`), so
    // the cells group into one compile per kernel x options, each
    // carrying the distinct machines it runs on.
    let mut index: HashMap<(&str, CompileOptions), usize> = HashMap::new();
    let mut groups: Vec<(&str, CompileOptions, Vec<SimConfig>)> = Vec::new();
    for &(kernel, options) in &cells {
        let g = *index
            .entry((kernel, options.compile_key()))
            .or_insert_with(|| {
                groups.push((kernel, options, Vec::new()));
                groups.len() - 1
            });
        let machines = &mut groups[g].2;
        if !machines.contains(&options.sim) {
            machines.push(options.sim);
        }
    }

    let mut checked = 0;
    let mut failures = Vec::new();
    for (kernel, options, machines) in &groups {
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
