//! The differential oracle: compare the optimized pipeline's observable
//! behaviour against independent reference implementations.
//!
//! Four diffs, each judging the compiled program or the run it is
//! handed:
//!
//! * **Checksum** — the compiled (optimized, scheduled, allocated)
//!   program is replayed through `ir::interp` and its memory-image
//!   checksum compared against a fresh interpretation of the
//!   *unoptimized* source program. This repeats, from outside, the
//!   cross-check the pipeline performs internally — an independent
//!   replay that a pipeline bug cannot silently skip.
//! * **Weights** — every audited region's weight vector is recomputed
//!   with both the bitset kernel ([`bsched_core::compute_weights`]) and
//!   the retained naive reference
//!   ([`bsched_core::compute_weights_reference`]); all three must agree
//!   bit for bit.
//! * **Engines** — the compiled program is simulated under the
//!   proof-free decode ([`SimEngine::Interpret`]), whose metrics and
//!   checksum must equal the judged default-decode run bit for bit
//!   ([`check_engines`]).
//! * **Sampling** — a sampled run's exact-by-construction observables
//!   (instruction counts, checksum) must match an exact run bit for bit
//!   and its estimated cycle-level metrics must land within committed
//!   relative tolerances of the exact ones ([`sampling_violations`]).

use bsched_core::{compute_weights, compute_weights_reference, ScheduleAudit};
use bsched_ir::{Dag, ExecError, Interp, Program};
use bsched_sim::{MachineSpec, SimConfig, SimEngine, SimMetrics, SimResult, Simulator};
use std::fmt;

/// Per-cell tolerance on the sampled CPI (cycles) estimate, as a
/// fraction of the exact value. This is the *max* bound of the paper
/// harness's acceptance criteria; the ≤ 2 % *mean* bound
/// ([`SAMPLING_CPI_MEAN_TOL`]) is enforced over whole sweeps by the
/// error-bound suite and `benches/sampling.rs`.
pub const SAMPLING_CPI_TOL: f64 = 0.05;
/// Sweep-wide mean tolerance on the sampled CPI estimate.
pub const SAMPLING_CPI_MEAN_TOL: f64 = 0.02;
/// Per-cell tolerance on the load-interlock stall estimate.
pub const SAMPLING_STALL_TOL: f64 = 0.15;
/// Per-cell tolerance on the L1D-miss estimate.
pub const SAMPLING_MISS_TOL: f64 = 0.15;
/// Denominator floor for stall and miss errors, as a fraction of the
/// run's overall magnitude (exact cycles for stalls, total reads for
/// misses). A stall estimate that is off by its own relative 50 % but by
/// under 1 % of total cycles cannot move any conclusion drawn from the
/// run; flooring the denominator keeps such noise from failing cells.
pub const SAMPLING_FLOOR_FRAC: f64 = 0.01;

/// Relative error of `estimated` against `exact` with the denominator
/// floored at `floor` (see [`SAMPLING_FLOOR_FRAC`]).
#[must_use]
pub fn sampling_rel_err(estimated: u64, exact: u64, floor: u64) -> f64 {
    let denom = exact.max(floor).max(1) as f64;
    (estimated as f64 - exact as f64).abs() / denom
}

/// One differential divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffViolation {
    /// The compiled program's memory image differs from the unoptimized
    /// baseline's.
    ChecksumDiverged {
        /// FNV-1a checksum of the baseline (source) memory image.
        baseline: u64,
        /// FNV-1a checksum of the compiled program's memory image.
        compiled: u64,
    },
    /// The two simulation engines disagree on the same compiled program
    /// (they must be bit-identical in every observable).
    EngineDiverged {
        /// The first observable that diverged (`"checksum"`, `"cycles"`,
        /// `"mem"`, …).
        field: &'static str,
        /// Its value under [`SimEngine::Interpret`], `Debug`-rendered.
        interpret: String,
        /// Its value under [`SimEngine::BlockCompiled`], `Debug`-rendered.
        block: String,
    },
    /// A sampled run diverged on an observable that sampling derives
    /// from an exact functional pass (instruction counts, checksum) —
    /// those must match bit for bit, tolerance does not apply.
    SamplingExactnessDiverged {
        /// The diverging observable (`"insts"`, `"checksum"`).
        field: &'static str,
        /// The exact engine's value, `Debug`-rendered.
        exact: String,
        /// The sampled run's value, `Debug`-rendered.
        sampled: String,
    },
    /// A sampled estimate strayed outside its committed tolerance of the
    /// exact oracle. Errors are stored in per-mille so the variant stays
    /// `Eq` (reports and the fuzzer dedup violations by equality).
    SamplingOutOfTolerance {
        /// The estimated metric (`"cpi"`, `"load_interlock"`,
        /// `"l1d_misses"`).
        metric: &'static str,
        /// The exact engine's value.
        exact: u64,
        /// The sampled estimate.
        estimated: u64,
        /// Relative error in per-mille, after denominator flooring.
        err_permille: u64,
        /// The tolerance it exceeded, in per-mille.
        tol_permille: u64,
    },
    /// A region's scheduler weights disagree with a reference
    /// recomputation.
    WeightsDiverged {
        /// Index of the region in the audit.
        region: usize,
        /// First instruction index whose weight differs.
        index: usize,
        /// The weight the scheduler used.
        scheduled: u32,
        /// The weight the bitset kernel recomputes.
        kernel: u32,
        /// The weight the naive reference computes.
        reference: u32,
    },
}

impl fmt::Display for DiffViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffViolation::ChecksumDiverged { baseline, compiled } => write!(
                f,
                "compiled program diverged from the unoptimized baseline: \
                 checksum {compiled:#018x} vs {baseline:#018x}"
            ),
            DiffViolation::EngineDiverged {
                field,
                interpret,
                block,
            } => write!(
                f,
                "simulation engines diverged on {field}: \
                 interpret produced {interpret}, block produced {block}"
            ),
            DiffViolation::SamplingExactnessDiverged {
                field,
                exact,
                sampled,
            } => write!(
                f,
                "sampled run diverged on exact-by-construction {field}: \
                 sampled produced {sampled}, exact engine {exact}"
            ),
            DiffViolation::SamplingOutOfTolerance {
                metric,
                exact,
                estimated,
                err_permille,
                tol_permille,
            } => write!(
                f,
                "sampled {metric} estimate out of tolerance: {estimated} vs \
                 exact {exact} ({err_permille}\u{2030} > {tol_permille}\u{2030} allowed)"
            ),
            DiffViolation::WeightsDiverged {
                region,
                index,
                scheduled,
                kernel,
                reference,
            } => write!(
                f,
                "weights diverged in region {region} at instruction {index}: \
                 scheduled with {scheduled}, kernel recomputes {kernel}, \
                 naive reference {reference}"
            ),
        }
    }
}

/// Replays both programs through the reference interpreter, each under
/// an instruction budget of `fuel`, and compares final memory
/// checksums. The fuzzer uses a tight budget so a runaway generated
/// program fails fast.
///
/// # Errors
///
/// Propagates [`ExecError`]s (including fuel exhaustion) if either
/// program fails to execute.
pub fn check_checksum_with_fuel(
    baseline: &Program,
    compiled: &Program,
    fuel: u64,
) -> Result<Vec<DiffViolation>, ExecError> {
    let base = Interp::new(baseline).with_fuel(fuel).run()?;
    let comp = Interp::new(compiled).with_fuel(fuel).run()?;
    let mut violations = Vec::new();
    if base.checksum != comp.checksum {
        violations.push(DiffViolation::ChecksumDiverged {
            baseline: base.checksum,
            compiled: comp.checksum,
        });
    }
    Ok(violations)
}

/// Simulates `compiled` under the proof-free decode
/// ([`SimEngine::Interpret`]) on `config` and compares it with `run`,
/// the default-decode run being judged: every metric and the final
/// memory checksum must agree bit for bit. The first differing field is
/// reported (one violation keeps reports readable — the decodes either
/// agree everywhere or have a structural bug). An oracle that fails
/// where `run` succeeded is itself a divergence.
#[must_use]
pub fn check_engines(compiled: &Program, config: SimConfig, run: &SimResult) -> Vec<DiffViolation> {
    let oracle = match Simulator::for_machine(compiled, &MachineSpec::custom(config))
        .with_engine(SimEngine::Interpret)
        .run()
    {
        Ok(oracle) => oracle,
        Err(e) => {
            return vec![DiffViolation::EngineDiverged {
                field: "outcome",
                interpret: format!("error ({e})"),
                block: "success".to_string(),
            }]
        }
    };
    let mut violations = Vec::new();
    if let Some((field, iv, bv)) = first_metric_diff(&oracle.metrics, &run.metrics) {
        violations.push(DiffViolation::EngineDiverged {
            field,
            interpret: iv,
            block: bv,
        });
    } else if oracle.checksum != run.checksum {
        violations.push(DiffViolation::EngineDiverged {
            field: "checksum",
            interpret: format!("{:#018x}", oracle.checksum),
            block: format!("{:#018x}", run.checksum),
        });
    }
    violations
}

/// Compares a sampled run with an exact run of the same program: the
/// exact-by-construction observables (instruction counts, checksum)
/// must be bit-identical, and each estimated metric must land within
/// its committed tolerance ([`SAMPLING_CPI_TOL`],
/// [`SAMPLING_STALL_TOL`], [`SAMPLING_MISS_TOL`]) of the exact one.
#[must_use]
pub fn sampling_violations(exact: &SimResult, sampled: &SimResult) -> Vec<DiffViolation> {
    let mut violations = Vec::new();
    if exact.metrics.insts != sampled.metrics.insts {
        violations.push(DiffViolation::SamplingExactnessDiverged {
            field: "insts",
            exact: format!("{:?}", exact.metrics.insts),
            sampled: format!("{:?}", sampled.metrics.insts),
        });
    }
    if exact.checksum != sampled.checksum {
        violations.push(DiffViolation::SamplingExactnessDiverged {
            field: "checksum",
            exact: format!("{:#018x}", exact.checksum),
            sampled: format!("{:#018x}", sampled.checksum),
        });
    }

    let permille = |x: f64| (x * 1000.0).ceil() as u64;
    let mut tol_check = |metric, est: u64, ex: u64, floor: u64, tol: f64| {
        let err = sampling_rel_err(est, ex, floor);
        if err > tol {
            violations.push(DiffViolation::SamplingOutOfTolerance {
                metric,
                exact: ex,
                estimated: est,
                err_permille: permille(err),
                tol_permille: permille(tol),
            });
        }
    };
    let cycles_floor = (exact.metrics.cycles as f64 * SAMPLING_FLOOR_FRAC) as u64;
    let reads = exact.metrics.mem.total_reads();
    let reads_floor = (reads as f64 * SAMPLING_FLOOR_FRAC) as u64;
    tol_check(
        "cpi",
        sampled.metrics.cycles,
        exact.metrics.cycles,
        1,
        SAMPLING_CPI_TOL,
    );
    tol_check(
        "load_interlock",
        sampled.metrics.load_interlock,
        exact.metrics.load_interlock,
        cycles_floor,
        SAMPLING_STALL_TOL,
    );
    let misses = |r: &SimResult| r.metrics.mem.total_reads() - r.metrics.mem.l1d_hits;
    tol_check(
        "l1d_misses",
        misses(sampled),
        misses(exact),
        reads_floor,
        SAMPLING_MISS_TOL,
    );
    violations
}

/// The first field of [`SimMetrics`] on which the two runs disagree.
fn first_metric_diff(i: &SimMetrics, b: &SimMetrics) -> Option<(&'static str, String, String)> {
    macro_rules! diff {
        ($($field:ident),+ $(,)?) => {
            $(if i.$field != b.$field {
                return Some((
                    stringify!($field),
                    format!("{:?}", i.$field),
                    format!("{:?}", b.$field),
                ));
            })+
        };
    }
    diff!(
        cycles,
        insts,
        load_interlock,
        fixed_interlock,
        branch_penalty,
        store_stall,
        fetch_stall,
        tlb_stall,
        mem,
    );
    None
}

/// Recomputes every audited region's weights with both implementations
/// and reports any disagreement with the weights the scheduler ran on.
#[must_use]
pub fn check_weights(audit: &ScheduleAudit) -> Vec<DiffViolation> {
    let mut violations = Vec::new();
    for (ri, region) in audit.regions.iter().enumerate() {
        let dag = Dag::new(&region.insts);
        let kernel = compute_weights(&region.insts, &dag, &audit.config);
        let reference = compute_weights_reference(&region.insts, &dag, &audit.config);
        for (i, &w) in region.weights.iter().enumerate() {
            if w != kernel[i] || w != reference[i] {
                violations.push(DiffViolation::WeightsDiverged {
                    region: ri,
                    index: i,
                    scheduled: w,
                    kernel: kernel[i],
                    reference: reference[i],
                });
                break; // one per region keeps reports readable
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_core::{RegionSchedule, SchedulerKind, TieBreak, WeightConfig};
    use bsched_ir::{Inst, Op, Reg, RegClass, RegionId};
    use bsched_pipeline::Experiment;

    #[test]
    fn identical_programs_have_no_checksum_diff() {
        let session = Experiment::builder().kernel("TRFD").build().unwrap();
        let compiled = session.compile().unwrap();
        let v = check_checksum_with_fuel(session.source(), &compiled.program, Interp::DEFAULT_FUEL)
            .unwrap();
        assert_eq!(v, vec![]);
    }

    #[test]
    fn engines_agree_on_a_real_cell() {
        let session = Experiment::builder().kernel("TRFD").build().unwrap();
        let compiled = session.compile().unwrap();
        let sim = session.options().sim;
        let run = Simulator::for_machine(&compiled.program, &MachineSpec::custom(sim))
            .run()
            .unwrap();
        assert_eq!(check_engines(&compiled.program, sim, &run), vec![]);
        let mut wrong = run.clone();
        wrong.checksum ^= 1;
        assert!(matches!(
            check_engines(&compiled.program, sim, &wrong).as_slice(),
            [DiffViolation::EngineDiverged {
                field: "checksum",
                ..
            }]
        ));
    }

    /// The decodes must also fail alike: when the fuel budget runs out
    /// in the same block as an earlier wild store, the store's error
    /// wins under both, however the default decode batches its fuel.
    #[test]
    fn engines_agree_on_which_error_stops_a_run() {
        let mut p = Program::new("wild");
        let r = p.add_region("a", 64);
        let mut b = bsched_ir::FuncBuilder::new("main");
        let base = b.load_region_addr(r);
        let v = b.iconst(7);
        b.store(v, base, 1 << 40).with_region(r).emit(&mut b);
        let _ = b.iconst(1);
        let _ = b.iconst(2);
        b.ret();
        p.set_main(b.finish());
        let config = SimConfig {
            fuel: 3,
            ..SimConfig::default()
        };
        let [interp, block] = [SimEngine::Interpret, SimEngine::BlockCompiled].map(|engine| {
            Simulator::for_machine(&p, &MachineSpec::custom(config))
                .with_engine(engine)
                .run()
                .err()
        });
        assert_eq!(interp, block);
        assert!(
            matches!(interp, Some(ExecError::WildStore { .. })),
            "{interp:?}"
        );
    }

    #[test]
    fn out_of_tolerance_estimates_are_reported() {
        let session = Experiment::builder().kernel("TRFD").build().unwrap();
        let compiled = session.compile().unwrap();
        let exact = Simulator::for_machine(
            &compiled.program,
            &MachineSpec::custom(session.options().sim),
        )
        .run()
        .unwrap();
        // A fabricated estimate 10 % high on cycles and bit-wrong on the
        // checksum: both must surface, with the error in per-mille.
        let mut fake = exact.clone();
        fake.metrics.cycles += exact.metrics.cycles / 10;
        fake.checksum ^= 1;
        let v = sampling_violations(&exact, &fake);
        assert!(v.iter().any(|d| matches!(
            d,
            DiffViolation::SamplingExactnessDiverged {
                field: "checksum",
                ..
            }
        )));
        let cpi = v
            .iter()
            .find_map(|d| match d {
                DiffViolation::SamplingOutOfTolerance {
                    metric: "cpi",
                    err_permille,
                    tol_permille,
                    ..
                } => Some((*err_permille, *tol_permille)),
                _ => None,
            })
            .expect("10% CPI error exceeds the 5% tolerance");
        assert!(cpi.0 > cpi.1);
        assert_eq!(cpi.1, (SAMPLING_CPI_TOL * 1000.0).ceil() as u64);

        // And the floor: a stall estimate off by 100% of a value that is
        // well under 1% of total cycles is noise, not a violation.
        let mut small = exact.clone();
        small.metrics.load_interlock = exact.metrics.cycles / 2000;
        let mut est = small.clone();
        est.metrics.load_interlock *= 2;
        assert_eq!(sampling_violations(&small, &est), vec![]);
    }

    #[test]
    fn metric_diff_names_the_first_diverging_field() {
        let a = bsched_sim::SimMetrics::default();
        let mut b = a.clone();
        b.load_interlock = 7;
        let (field, iv, bv) = first_metric_diff(&a, &b).unwrap();
        assert_eq!(field, "load_interlock");
        assert_eq!((iv.as_str(), bv.as_str()), ("0", "7"));
        assert_eq!(first_metric_diff(&a, &a.clone()), None);
    }

    #[test]
    fn audited_weights_agree_with_both_implementations() {
        let session = Experiment::builder().kernel("TRFD").build().unwrap();
        let (_, audit) = session.compile_audited().unwrap();
        assert!(!audit.regions.is_empty());
        assert_eq!(check_weights(&audit), vec![]);
    }

    #[test]
    fn corrupted_weights_are_caught() {
        let r = |n| Reg::virt(RegClass::Int, n);
        let f = |n| Reg::virt(RegClass::Float, n);
        let insts = vec![
            Inst::load(f(0), r(0), 0).with_region(RegionId::new(0)),
            Inst::op(Op::FAdd, f(1), &[f(0), f(0)]),
            Inst::op(Op::FMul, f(2), &[f(5), f(6)]),
        ];
        let config = WeightConfig::new(SchedulerKind::Balanced);
        let dag = Dag::new(&insts);
        let mut weights = compute_weights(&insts, &dag, &config);
        weights[0] += 1; // a corrupted weight vector
        let audit = ScheduleAudit {
            config,
            tie_break: TieBreak::Standard,
            regions: vec![RegionSchedule {
                block: 0,
                insts,
                weights,
                order: vec![0, 1, 2],
            }],
            exact: Default::default(),
        };
        let v = check_weights(&audit);
        assert!(matches!(
            v.as_slice(),
            [DiffViolation::WeightsDiverged {
                region: 0,
                index: 0,
                ..
            }]
        ));
    }
}
