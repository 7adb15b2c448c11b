//! Compilation reads no machine: every suite kernel under each judged
//! scheduler arm compiles to the same program and the same statistics
//! on every registry machine. The harness relies on this to compile
//! cells that differ only in the machine once.

use bsched_pipeline::{CompileOptions, Experiment, MachineSpec, SchedulerKind, Source};
use std::sync::Arc;

#[test]
fn every_registry_machine_compiles_the_same_program() {
    let machines: Vec<MachineSpec> = MachineSpec::registry()
        .iter()
        .map(|m| MachineSpec::named(m.name).expect("registry names parse"))
        .collect();
    assert_eq!(machines.len(), 6);
    let kernels = bsched_workloads::all_kernels();
    assert_eq!(kernels.len(), 17);
    for kernel in kernels {
        let source = Arc::new(Source::new(kernel.program()));
        for arm in [
            SchedulerKind::Traditional,
            SchedulerKind::Balanced,
            SchedulerKind::Exact,
        ] {
            let opts = CompileOptions::new(arm).with_unroll(4);
            let compiled: Vec<String> = machines
                .iter()
                .map(|m| {
                    let c = Experiment::builder()
                        .source(kernel.name, Arc::clone(&source))
                        .compile_options(opts.with_sim(m.config()))
                        .build()
                        .expect("source supplied")
                        .compile()
                        .unwrap_or_else(|e| {
                            panic!("{} {} on {}: {e}", kernel.name, opts.label(), m.spec())
                        });
                    format!("{}\n{:?}", c.program, c.stats)
                })
                .collect();
            for (m, text) in machines.iter().zip(&compiled).skip(1) {
                assert!(
                    text == &compiled[0],
                    "{} {} compiles differently on {} than on {}",
                    kernel.name,
                    opts.label(),
                    m.spec(),
                    machines[0].spec()
                );
            }
        }
    }
}
