//! A cell's `Display` label names that cell alone, over every cell the
//! experiment binaries simulate: span labels, `slowest cells:` lines,
//! `HarnessError::Cell` messages and served trace streams rely on it.

#[path = "../../verify/tests/support/simulated_cells.rs"]
mod simulated_cells;

use bsched_core::SchedulerKind;
use bsched_harness::ExperimentCell;
use bsched_pipeline::CompileOptions;
use std::collections::{HashMap, HashSet};

#[test]
fn display_is_injective_over_every_simulated_cell() {
    let simulated = simulated_cells::simulated_cells();
    let mut distinct: HashSet<(&str, CompileOptions)> = simulated.iter().copied().collect();
    assert_eq!(distinct.len(), 647);
    // The selective scheduler prints as `BS` in table labels.
    distinct.extend(
        simulated
            .iter()
            .filter(|(_, o)| o.scheduler == SchedulerKind::Balanced)
            .map(|&(kernel, options)| {
                let selective = CompileOptions {
                    scheduler: SchedulerKind::SelectiveBalanced,
                    ..options
                };
                (kernel, selective)
            }),
    );
    assert!(distinct.len() > 647, "selective cells added");
    let mut by_label: HashMap<String, (&str, CompileOptions)> = HashMap::new();
    for &(kernel, options) in &distinct {
        let label = ExperimentCell::new(kernel, options).to_string();
        if let Some(other) = by_label.insert(label.clone(), (kernel, options)) {
            panic!("{label} names two cells: {options:?} and {other:?}");
        }
    }
}
