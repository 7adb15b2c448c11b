//! The exact scheduler's trace span agrees with its statistics.
//!
//! Every region the exact arm searches records one `sched.exact` span,
//! labelled with the function and carrying the search's node count and
//! whether it proved the optimum. On a traced exact compile the spans
//! must add up to the compile's own [`bsched_core::ExactStats`]: one span
//! per searched region, the summed `nodes` equal to its node total and
//! the `proven` flags equal to its proven count. The compiles cover
//! proven and budget-exhausted regions alike.
//!
//! This binary holds one test, so no other compile records events into
//! the process-global recorder while it captures.

use bsched_pipeline::{CompileOptions, Experiment, SchedulerKind};
use bsched_trace::points;

#[test]
fn exact_spans_add_up_to_the_exact_stats() {
    let mut fallbacks = 0;
    for (kernel, unroll) in [("TRFD", 4), ("ARC2D", 4), ("ARC2D", 8)] {
        let session = Experiment::builder()
            .kernel(kernel)
            .compile_options(CompileOptions::new(SchedulerKind::Exact).with_unroll(unroll))
            .build()
            .expect("suite kernel");
        let ((_, audit), events) =
            bsched_trace::capture(|| session.compile_audited().expect("exact compile"));
        let stats = audit.exact;
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.id == points::SCHED_EXACT)
            .collect();
        let case = format!("{kernel} LU{unroll}");
        assert!(stats.regions > 0, "{case}: no region searched");
        assert_eq!(spans.len() as u64, stats.regions, "{case}: span count");
        let nodes: u64 = spans.iter().filter_map(|e| e.arg("nodes")).sum();
        assert_eq!(nodes, stats.nodes, "{case}: summed nodes");
        let proven: u64 = spans.iter().filter_map(|e| e.arg("proven")).sum();
        assert_eq!(proven, stats.proven, "{case}: proven regions");
        for span in &spans {
            assert!(!span.label.is_empty(), "{case}: unlabelled span");
            assert!(span.arg("block").is_some() && span.arg("insts").is_some());
        }
        fallbacks += stats.fallbacks;
    }
    assert!(fallbacks > 0, "no compile exhausted its budget");
}
