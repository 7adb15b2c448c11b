//! Exact-scheduler conformance over the real kernel suite.
//!
//! The property tests in `bsched-core` prove the branch-and-bound
//! search optimal on small random DAGs; this suite points the same arm
//! at every paper kernel and holds it to the pipeline's contracts: all
//! emitted schedules are legal, the weight audit still reconciles, the
//! searched cost never exceeds the balanced seed, and a zero node
//! budget degenerates to exactly the balanced compile.

use bsched_core::SchedulerKind;
use bsched_pipeline::{CompileOptions, Experiment};
use bsched_verify::{check_weights, validate_region_schedule};

/// Small deterministic node budget: debug-build friendly across all 17
/// kernels, while still exercising both the proven and the
/// budget-fallback paths on unrolled bodies.
const TEST_BUDGET: u64 = 500;

fn audited(
    name: &str,
    program: bsched_ir::Program,
    opts: CompileOptions,
) -> (bsched_pipeline::Compiled, bsched_core::ScheduleAudit) {
    Experiment::builder()
        .program(name, program)
        .compile_options(opts)
        .build()
        .expect("kernel builds")
        .compile_audited()
        .expect("kernel compiles")
}

/// Every kernel in the suite, compiled under the exact arm: zero
/// legality violations, a clean weight audit, and a searched cost that
/// never exceeds the balanced incumbent's.
#[test]
fn exact_arm_is_legal_on_every_kernel() {
    for spec in bsched_workloads::all_kernels() {
        let opts = CompileOptions::new(SchedulerKind::Exact).with_exact_budget(TEST_BUDGET);
        let (_, audit) = audited(spec.name, spec.program(), opts);
        for (ri, region) in audit.regions.iter().enumerate() {
            let violations = validate_region_schedule(region);
            assert!(
                violations.is_empty(),
                "{}: region {ri} illegal under the exact arm: {violations:?}",
                spec.name
            );
        }
        if let Some(v) = check_weights(&audit).first() {
            panic!(
                "{}: weight audit failed under the exact arm: {v}",
                spec.name
            );
        }
        assert!(
            audit.exact.regions > 0,
            "{}: exact arm searched nothing",
            spec.name
        );
        assert_eq!(
            audit.exact.regions,
            audit.exact.proven + audit.exact.fallbacks,
            "{}: every region is either proven or a fallback",
            spec.name
        );
        assert!(
            audit.exact.exact_cost <= audit.exact.heuristic_cost,
            "{}: search emitted a schedule worse than its incumbent",
            spec.name
        );
    }
}

/// With a node budget of zero the search expands nothing and must
/// return the balanced incumbent untouched — the compiled program is
/// byte-for-byte the balanced compile, zero nodes are expanded, and
/// the searched cost equals the incumbent's exactly.
#[test]
fn zero_budget_exact_compile_is_byte_identical_to_balanced() {
    for name in ["TRFD", "ARC2D"] {
        let spec = bsched_workloads::all_kernels()
            .into_iter()
            .find(|k| k.name == name)
            .unwrap_or_else(|| panic!("unknown kernel {name}"));
        let balanced = audited(
            name,
            spec.program(),
            CompileOptions::new(SchedulerKind::Balanced),
        );
        let exact = audited(
            name,
            spec.program(),
            CompileOptions::new(SchedulerKind::Exact).with_exact_budget(0),
        );
        assert_eq!(
            format!("{:?}", balanced.0.program),
            format!("{:?}", exact.0.program),
            "{name}: zero-budget exact compile diverged from balanced"
        );
        assert_eq!(exact.1.exact.nodes, 0, "{name}: zero budget expanded nodes");
        assert_eq!(
            exact.1.exact.exact_cost, exact.1.exact.heuristic_cost,
            "{name}: zero budget cannot improve on the incumbent"
        );
    }
}
