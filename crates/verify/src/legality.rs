//! The schedule-legality validator.
//!
//! Given a region's *pre-schedule* instruction list and the emitted
//! schedule (a claimed permutation of `0..n`), the validator proves three
//! properties, returning a structured [`Violation`] for each breach:
//!
//! 1. **Permutation** — every pre-schedule index appears exactly once.
//! 2. **Dependence order** — for every edge of the dependence DAG
//!    (rebuilt here from the pre-schedule instructions, independently of
//!    whatever DAG the scheduler used), the source is issued before the
//!    target. This is the check that catches a scheduler whose DAG lost
//!    or flipped an edge.
//! 3. **Issue latency** — the minimal in-order issue cycles implied by
//!    the schedule respect every dependence latency, with a load's
//!    latency treated as the *architectural minimum* (the L1-hit
//!    latency): balanced weights may assume more slack, never less.
//!
//! The latency check is split into [`assign_issue_cycles`] (compute the
//! earliest feasible cycles) and [`check_issue_cycles`] (validate an
//! arbitrary cycle assignment), so tests can probe the checker with
//! corrupted assignments directly.

use bsched_core::RegionSchedule;
use bsched_ir::opcode::latency;
use bsched_ir::{Dag, DepKind, Inst};
use std::fmt;

/// One breach of the schedule-legality contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The schedule's length differs from the region's.
    LengthMismatch {
        /// Instructions in the region.
        expected: usize,
        /// Entries in the schedule.
        got: usize,
    },
    /// A pre-schedule index appears twice.
    DuplicateIndex {
        /// The repeated index.
        index: usize,
    },
    /// A schedule entry is not a valid pre-schedule index.
    IndexOutOfRange {
        /// The offending entry.
        index: usize,
        /// The region length.
        len: usize,
    },
    /// A pre-schedule index never appears (an instruction was dropped).
    MissingIndex {
        /// The dropped index.
        index: usize,
    },
    /// A dependence edge is issued backwards.
    DependenceViolated {
        /// Pre-schedule index of the edge source.
        from: usize,
        /// Pre-schedule index of the edge target.
        to: usize,
        /// The dependence kind.
        kind: DepKind,
        /// Issue position of the source.
        pos_from: usize,
        /// Issue position of the target.
        pos_to: usize,
    },
    /// An issue-cycle assignment violates a dependence latency.
    LatencyViolated {
        /// Pre-schedule index of the producer.
        from: usize,
        /// Pre-schedule index of the consumer.
        to: usize,
        /// Minimum cycles the consumer must issue after the producer.
        need: u64,
        /// Cycles actually between them (may be zero).
        got: u64,
    },
    /// Issue cycles are not strictly increasing along the single-issue
    /// schedule.
    IssueOrderViolated {
        /// Issue position at which the cycle failed to advance.
        pos: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::LengthMismatch { expected, got } => {
                write!(f, "schedule length {got} != region length {expected}")
            }
            Violation::DuplicateIndex { index } => {
                write!(f, "instruction {index} scheduled twice")
            }
            Violation::IndexOutOfRange { index, len } => {
                write!(f, "schedule entry {index} out of range for region of {len}")
            }
            Violation::MissingIndex { index } => {
                write!(f, "instruction {index} missing from schedule")
            }
            Violation::DependenceViolated {
                from,
                to,
                kind,
                pos_from,
                pos_to,
            } => write!(
                f,
                "{kind:?} dependence {from} -> {to} issued backwards \
                 (positions {pos_from} -> {pos_to})"
            ),
            Violation::LatencyViolated {
                from,
                to,
                need,
                got,
            } => write!(
                f,
                "latency of dependence {from} -> {to} violated: need {need} cycles, got {got}"
            ),
            Violation::IssueOrderViolated { pos } => {
                write!(f, "issue cycles not strictly increasing at position {pos}")
            }
        }
    }
}

/// The minimum cycles a consumer must wait on `producer` through a
/// dependence of `kind`. Data dependences carry the producer's latency —
/// for loads the *architectural minimum* (L1-hit latency), since no
/// schedule may assume a load resolves faster than a hit. Anti, output,
/// memory-ordering and compiler-ordering arcs only require issue order.
#[must_use]
pub fn min_edge_latency(producer: &Inst, kind: DepKind) -> u64 {
    match kind {
        DepKind::Data => {
            if producer.op.is_load() {
                u64::from(latency::LOAD_HIT)
            } else {
                u64::from(producer.op.latency())
            }
        }
        DepKind::Anti | DepKind::Output | DepKind::Mem | DepKind::Order => 1,
    }
}

/// Validates that `order` is a legal schedule of `insts` under `dag`.
///
/// Returns every violation found (empty = legal). If the permutation
/// check fails, the dependence and latency checks are skipped — they
/// would read through the broken index map.
#[must_use]
pub fn validate_region(insts: &[Inst], dag: &Dag, order: &[usize]) -> Vec<Violation> {
    let n = insts.len();
    let mut violations = Vec::new();
    if order.len() != n {
        violations.push(Violation::LengthMismatch {
            expected: n,
            got: order.len(),
        });
    }
    let mut pos = vec![usize::MAX; n];
    for (k, &i) in order.iter().enumerate() {
        if i >= n {
            violations.push(Violation::IndexOutOfRange { index: i, len: n });
        } else if pos[i] != usize::MAX {
            violations.push(Violation::DuplicateIndex { index: i });
        } else {
            pos[i] = k;
        }
    }
    for (i, &p) in pos.iter().enumerate() {
        if p == usize::MAX {
            violations.push(Violation::MissingIndex { index: i });
        }
    }
    if !violations.is_empty() {
        return violations;
    }

    // 2. Every dependence edge respects issue order.
    for i in 0..n {
        for &(t, kind) in dag.succs(i) {
            let t = t as usize;
            if pos[i] >= pos[t] {
                violations.push(Violation::DependenceViolated {
                    from: i,
                    to: t,
                    kind,
                    pos_from: pos[i],
                    pos_to: pos[t],
                });
            }
        }
    }
    if !violations.is_empty() {
        return violations;
    }

    // 3. The minimal in-order issue cycles meet every latency constraint.
    let cycles = assign_issue_cycles(insts, dag, order);
    violations.extend(check_issue_cycles(insts, dag, order, &cycles));
    violations
}

/// The earliest feasible single-issue cycle for each schedule position:
/// one instruction per cycle, and no instruction before its operands'
/// minimum-latency ready time. Indexed by *schedule position*.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the region (validate the
/// permutation first).
#[must_use]
pub fn assign_issue_cycles(insts: &[Inst], dag: &Dag, order: &[usize]) -> Vec<u64> {
    let n = insts.len();
    assert_eq!(order.len(), n, "order must be a permutation of the region");
    let mut issue_of = vec![0u64; n]; // by pre-schedule index
    let mut cycles = Vec::with_capacity(n);
    let mut clock: u64 = 0;
    for (k, &i) in order.iter().enumerate() {
        let mut at = if k == 0 { 0 } else { clock + 1 };
        for &(p, kind) in dag.preds(i) {
            let p = p as usize;
            at = at.max(issue_of[p] + min_edge_latency(&insts[p], kind));
        }
        issue_of[i] = at;
        clock = at;
        cycles.push(at);
    }
    cycles
}

/// Checks an arbitrary issue-cycle assignment (indexed by schedule
/// position) against the region's dependence latencies and single-issue
/// order. [`validate_region`] feeds it the minimal assignment; tests can
/// feed corrupted ones.
#[must_use]
pub fn check_issue_cycles(
    insts: &[Inst],
    dag: &Dag,
    order: &[usize],
    cycles: &[u64],
) -> Vec<Violation> {
    let n = insts.len();
    let mut violations = Vec::new();
    let mut issue_of = vec![0u64; n];
    for (k, &i) in order.iter().enumerate() {
        issue_of[i] = cycles[k];
        if k > 0 && cycles[k] <= cycles[k - 1] {
            violations.push(Violation::IssueOrderViolated { pos: k });
        }
    }
    for i in 0..n {
        for &(t, kind) in dag.succs(i) {
            let t = t as usize;
            let need = min_edge_latency(&insts[i], kind);
            let got = issue_of[t].saturating_sub(issue_of[i]);
            if got < need {
                violations.push(Violation::LatencyViolated {
                    from: i,
                    to: t,
                    need,
                    got,
                });
            }
        }
    }
    violations
}

/// Validates one audited region: rebuilds the dependence DAG from the
/// pre-schedule instructions and checks the emitted order against it.
#[must_use]
pub fn validate_region_schedule(region: &RegionSchedule) -> Vec<Violation> {
    let dag = Dag::new(&region.insts);
    validate_region(&region.insts, &dag, &region.order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::{DagBuilder, Op, Reg, RegClass, RegionId};

    fn r(n: u32) -> Reg {
        Reg::virt(RegClass::Int, n)
    }
    fn f(n: u32) -> Reg {
        Reg::virt(RegClass::Float, n)
    }

    /// load -> dependent fadd, plus one independent fmul.
    fn region() -> Vec<Inst> {
        vec![
            Inst::load(f(0), r(0), 0).with_region(RegionId::new(0)),
            Inst::op(Op::FAdd, f(1), &[f(0), f(0)]),
            Inst::op(Op::FMul, f(2), &[f(5), f(6)]),
        ]
    }

    #[test]
    fn legal_schedules_pass() {
        let insts = region();
        let dag = Dag::new(&insts);
        for order in [vec![0, 1, 2], vec![0, 2, 1], vec![2, 0, 1]] {
            assert_eq!(validate_region(&insts, &dag, &order), vec![]);
        }
    }

    #[test]
    fn consumer_before_producer_is_caught() {
        let insts = region();
        let dag = Dag::new(&insts);
        let violations = validate_region(&insts, &dag, &[1, 0, 2]);
        assert!(matches!(
            violations[0],
            Violation::DependenceViolated {
                from: 0,
                to: 1,
                kind: DepKind::Data,
                ..
            }
        ));
    }

    #[test]
    fn broken_permutations_are_caught() {
        let insts = region();
        let dag = Dag::new(&insts);
        let v = validate_region(&insts, &dag, &[0, 1]);
        assert!(v.contains(&Violation::LengthMismatch {
            expected: 3,
            got: 2
        }));
        let v = validate_region(&insts, &dag, &[0, 1, 1]);
        assert!(v.contains(&Violation::DuplicateIndex { index: 1 }));
        assert!(v.contains(&Violation::MissingIndex { index: 2 }));
        let v = validate_region(&insts, &dag, &[0, 1, 9]);
        assert!(v.contains(&Violation::IndexOutOfRange { index: 9, len: 3 }));
    }

    #[test]
    fn flipped_dependence_edge_is_caught() {
        // A deliberately broken scheduler: its DAG lost the load's data
        // edge (a flipped edge bit), replaced by a spurious arc elsewhere.
        // With the consumer's weight boosted, the real list scheduler now
        // happily issues the consumer before the load. The validator,
        // rebuilding the true DAG from the pre-schedule instructions,
        // rejects the emitted order.
        let insts = region();
        let mut broken = DagBuilder::empty(insts.len());
        broken.add_edge(1, 2, DepKind::Data); // flipped/garbled edge set
        let broken = broken.build();
        let order = bsched_core::schedule_region(&insts, &broken, &[1, 50, 1]);
        assert_eq!(order[0], 1, "the broken DAG schedules the consumer first");
        let dag = Dag::new(&insts);
        let violations = validate_region(&insts, &dag, &order);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::DependenceViolated { from: 0, to: 1, .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn issue_cycles_respect_load_hit_minimum() {
        let insts = region();
        let dag = Dag::new(&insts);
        let order = vec![0, 2, 1];
        let cycles = assign_issue_cycles(&insts, &dag, &order);
        // Load at 0; independent fmul next cycle; consumer no earlier
        // than the L1-hit latency after the load.
        assert_eq!(cycles[0], 0);
        assert_eq!(cycles[1], 1);
        assert!(cycles[2] >= u64::from(latency::LOAD_HIT));
        assert_eq!(check_issue_cycles(&insts, &dag, &order, &cycles), vec![]);
    }

    #[test]
    fn corrupt_issue_cycles_are_caught() {
        let insts = region();
        let dag = Dag::new(&insts);
        let order = vec![0, 1, 2];
        // Consumer issued the cycle after the load: below the hit latency.
        let v = check_issue_cycles(&insts, &dag, &order, &[0, 1, 2]);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::LatencyViolated { from: 0, to: 1, .. })));
        // Non-increasing cycles.
        let v = check_issue_cycles(&insts, &dag, &order, &[0, 5, 5]);
        assert!(v.contains(&Violation::IssueOrderViolated { pos: 2 }));
    }

    #[test]
    fn violations_render_readably() {
        let v = Violation::DependenceViolated {
            from: 3,
            to: 7,
            kind: DepKind::Mem,
            pos_from: 9,
            pos_to: 2,
        };
        let s = v.to_string();
        assert!(s.contains("3 -> 7") && s.contains("Mem"), "{s}");
    }
}
