//! The top-down list scheduler (Multiflow Phase-3 style).
//!
//! At each step the scheduler considers the *ready* instructions — DAG
//! roots whose operands will be available at the current cycle — and picks
//! the one with the highest priority, breaking ties with the paper's three
//! heuristics (§4.2):
//!
//! 1. largest consumed-minus-defined register count (controls pressure);
//! 2. most DAG successors newly exposed;
//! 3. earliest original program order.
//!
//! If nothing is ready at the current cycle (every available instruction
//! is still waiting on a result), the clock advances — that gap is exactly
//! the interlock the weights are trying to schedule around.

use crate::exact::{schedule_cost, schedule_region_exact, ExactStats};
use crate::priority::compute_priorities;
use crate::weights::{compute_weights, SchedulerKind, WeightConfig};
use bsched_ir::{Dag, DepKind, Function, Inst};

/// Computes a schedule (a permutation of `0..insts.len()`) for a region
/// with an externally built DAG and weight vector.
///
/// This entry point is shared by basic-block scheduling and trace
/// scheduling (which adds control edges to the DAG first).
///
/// # Panics
///
/// Panics if the DAG/weight sizes do not match the region.
#[must_use]
pub fn schedule_region(insts: &[Inst], dag: &Dag, weights: &[u32]) -> Vec<usize> {
    schedule_region_with_pressure(insts, dag, weights, Some(PRESSURE_LIMIT))
}

/// Default per-class live-value ceiling before the scheduler prefers
/// pressure-reducing candidates (just under the Alpha's allocatable
/// register count; the paper's §4.2 pressure controls — the 50-cycle
/// weight cap and the consumed-minus-defined tie-break — bound pressure
/// only softly, and the Multiflow scheduler additionally tracked live
/// values during scheduling).
pub const PRESSURE_LIMIT: u32 = 26;

/// [`schedule_region`] with an explicit live-value ceiling. Trace
/// scheduling passes half of [`PRESSURE_LIMIT`]; `None` disables
/// pressure gating, which only this module's tests do.
#[must_use]
pub fn schedule_region_with_pressure(
    insts: &[Inst],
    dag: &Dag,
    weights: &[u32],
    pressure_limit: Option<u32>,
) -> Vec<usize> {
    schedule_region_full(
        insts,
        dag,
        weights,
        pressure_limit,
        &Default::default(),
        &Default::default(),
        TieBreak::Standard,
    )
}

/// Order of the tie-break heuristics after priority (paper §4.2 uses
/// pressure → exposed successors → original order; `--bin ablations`
/// prints the alternatives' tie-break rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TieBreak {
    /// Paper order: register pressure, exposed successors, program order.
    #[default]
    Standard,
    /// Exposed successors first, then pressure, then program order.
    ExposedFirst,
    /// Program order only (no intelligent tie-breaking).
    ProgramOrder,
}

/// The fully parameterised scheduler entry point: a live-value ceiling,
/// block-boundary liveness and a tie-break order. Regs in `live_in`
/// occupy registers from the start, and regs in `live_out` are never
/// freed by their last in-region use. Without this, a block whose
/// predecessors already hold many values live-through would be
/// scheduled up to the full ceiling and overflow the register file.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn schedule_region_full(
    insts: &[Inst],
    dag: &Dag,
    weights: &[u32],
    pressure_limit: Option<u32>,
    live_in: &std::collections::HashSet<bsched_ir::Reg>,
    live_out: &std::collections::HashSet<bsched_ir::Reg>,
    tie_break: TieBreak,
) -> Vec<usize> {
    use bsched_ir::RegClass;
    let n = insts.len();
    assert_eq!(dag.len(), n);
    assert_eq!(weights.len(), n);
    if n == 0 {
        return Vec::new();
    }
    let prio = compute_priorities(dag, weights);

    // Remaining in-region uses of each register, for live-value tracking.
    let mut uses_left: std::collections::HashMap<bsched_ir::Reg, u32> =
        std::collections::HashMap::new();
    let mut defined_here: std::collections::HashSet<bsched_ir::Reg> =
        std::collections::HashSet::new();
    for inst in insts {
        for &s in inst.srcs() {
            *uses_left.entry(s).or_insert(0) += 1;
        }
        if let Some(d) = inst.dst {
            defined_here.insert(d);
        }
    }
    let class_ix = |c: RegClass| match c {
        RegClass::Int => 0usize,
        RegClass::Float => 1usize,
    };
    // Registers live into the region occupy space before anything issues.
    let mut live = [0u32; 2];
    for &r in live_in {
        live[class_ix(r.class())] += 1;
    }

    let mut pred_left: Vec<usize> = (0..n).map(|i| dag.preds(i).len()).collect();
    // exposed[i] = number of successor edges of i whose target has exactly
    // one unsatisfied predecessor edge left (tie-break heuristic 2).
    // Maintained incrementally as pred counts drop, instead of re-walking
    // every candidate's successor list on every cycle.
    let mut exposed: Vec<usize> = (0..n)
        .map(|i| {
            dag.succs(i)
                .iter()
                .filter(|&&(t, _)| pred_left[t as usize] == 1)
                .count()
        })
        .collect();
    let mut earliest: Vec<u64> = vec![0; n];
    let mut available: Vec<usize> = (0..n).filter(|&i| pred_left[i] == 0).collect();
    let mut scheduled = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut cycle: u64 = 0;

    while order.len() < n {
        // Ready = available whose operands are ready at `cycle`.
        let mut best: Option<usize> = None;
        let mut best_pos = 0usize;
        let mut best_key = (false, 0u64, 0u64, i64::MIN, i64::MIN, usize::MAX);
        let mut min_earliest = u64::MAX;
        for (pos, &i) in available.iter().enumerate() {
            if earliest[i] > cycle {
                min_earliest = min_earliest.min(earliest[i]);
                continue;
            }
            let exposed = exposed[i];
            // When a class is at its live-value ceiling, candidates whose
            // *net* effect grows it further are demoted below every
            // candidate that does not (the boolean leads the key). The
            // net effect counts the value the candidate defines minus the
            // registers whose last use it is.
            let relieves = match pressure_limit {
                None => true,
                Some(limit) => {
                    let mut delta = [0i32; 2];
                    if let Some(d) = insts[i].dst {
                        if !live_in.contains(&d)
                            && (uses_left.get(&d).copied().unwrap_or(0) > 0
                                || live_out.contains(&d))
                        {
                            delta[class_ix(d.class())] += 1;
                        }
                    }
                    let mut seen = [bsched_ir::Reg::phys(RegClass::Int, 0); 3];
                    let mut nseen = 0;
                    for &src in insts[i].srcs() {
                        if seen[..nseen].contains(&src) {
                            continue;
                        }
                        seen[nseen] = src;
                        nseen += 1;
                        let occupies = defined_here.contains(&src) || live_in.contains(&src);
                        if uses_left.get(&src).copied() == Some(1)
                            && occupies
                            && !live_out.contains(&src)
                        {
                            delta[class_ix(src.class())] -= 1;
                        }
                    }
                    (0..2).all(|c| delta[c] <= 0 || live[c] < limit)
                }
            };
            // Among gate-failed candidates, prefer short-latency work
            // (an FP consumer one step from freeing registers) over
            // heavy-weight loads that would pile more values up.
            let gate_rank: u64 = if relieves {
                0
            } else {
                u64::MAX - u64::from(weights[i])
            };
            // Key order: pressure gate, gate rank, priority desc, then
            // the configured tie-break heuristics, original index asc.
            let (t1, t2) = match tie_break {
                TieBreak::Standard => (i64::from(insts[i].pressure_delta()), exposed as i64),
                TieBreak::ExposedFirst => (exposed as i64, i64::from(insts[i].pressure_delta())),
                TieBreak::ProgramOrder => (0, 0),
            };
            let key = (relieves, gate_rank, prio[i], t1, t2, usize::MAX - i);
            if best.is_none() || key > best_key {
                best = Some(i);
                best_pos = pos;
                best_key = key;
            }
        }
        let Some(pick) = best else {
            // Interlock: advance to the next operand-ready time.
            debug_assert!(min_earliest != u64::MAX, "deadlock in list scheduler");
            cycle = min_earliest;
            continue;
        };
        // If every ready candidate would push a saturated class further
        // (gate bit false) and results are still in flight, let the clock
        // run until a pressure-relieving consumer becomes ready.
        if !best_key.0 && min_earliest != u64::MAX {
            cycle = min_earliest;
            continue;
        }

        scheduled[pick] = true;
        available.swap_remove(best_pos);
        order.push(pick);
        // Live-value bookkeeping: last scheduled use frees the register,
        // a def with remaining uses occupies one.
        let mut seen = [bsched_ir::Reg::phys(RegClass::Int, 0); 3];
        let mut nseen = 0;
        for &s in insts[pick].srcs() {
            if seen[..nseen].contains(&s) {
                continue;
            }
            seen[nseen] = s;
            nseen += 1;
            if let Some(u) = uses_left.get_mut(&s) {
                *u = u.saturating_sub(1);
                let occupies = defined_here.contains(&s) || live_in.contains(&s);
                if *u == 0 && occupies && !live_out.contains(&s) {
                    live[class_ix(s.class())] = live[class_ix(s.class())].saturating_sub(1);
                }
            }
        }
        if let Some(d) = insts[pick].dst {
            if !live_in.contains(&d)
                && (uses_left.get(&d).copied().unwrap_or(0) > 0 || live_out.contains(&d))
            {
                live[class_ix(d.class())] += 1;
            }
        }
        for &(t, kind) in dag.succs(pick) {
            let t = t as usize;
            let lat = match kind {
                DepKind::Data => u64::from(weights[pick]),
                _ => 1,
            };
            earliest[t] = earliest[t].max(cycle + lat);
            pred_left[t] -= 1;
            match pred_left[t] {
                0 => available.push(t),
                // One predecessor edge left: every remaining unscheduled
                // predecessor (there is exactly one instruction, possibly
                // with multiple edges) now counts `t` as newly exposable.
                1 => {
                    for &(p, _) in dag.preds(t) {
                        if !scheduled[p as usize] {
                            exposed[p as usize] += 1;
                        }
                    }
                }
                _ => {}
            }
        }
        cycle += 1;
    }
    order
}

/// Schedules every basic block of `func` in place, with each block's
/// boundary liveness feeding the pressure gate.
pub fn schedule_function(func: &mut Function, config: &WeightConfig) {
    let _ = schedule_function_stats(func, config, TieBreak::Standard);
}

/// [`schedule_function`] with an explicit tie-break order that
/// additionally returns the aggregated
/// exact-search statistics (all zeros under the heuristic policies) —
/// the hook the pipeline uses to surface budget-exhaustion fallbacks in
/// run reports without paying for an audit.
pub fn schedule_function_stats(
    func: &mut Function,
    config: &WeightConfig,
    tie_break: TieBreak,
) -> ExactStats {
    schedule_function_inner(func, config, tie_break, None)
}

/// [`schedule_function_stats`] that additionally records, per block, the
/// pre-schedule instruction list, the weights, and the emitted order —
/// the evidence the `bsched-verify` legality validator replays.
#[must_use]
pub fn schedule_function_audited(
    func: &mut Function,
    config: &WeightConfig,
    tie_break: TieBreak,
) -> crate::audit::ScheduleAudit {
    let mut audit = crate::audit::ScheduleAudit::new(*config, tie_break);
    audit.exact = schedule_function_inner(func, config, tie_break, Some(&mut audit.regions));
    audit
}

fn schedule_function_inner(
    func: &mut Function,
    config: &WeightConfig,
    tie_break: TieBreak,
    mut audit: Option<&mut Vec<crate::audit::RegionSchedule>>,
) -> ExactStats {
    let cfg = bsched_ir::Cfg::new(func);
    let live = bsched_ir::Liveness::new(func, &cfg);
    let nblocks = func.blocks().len();
    let mut stats = ExactStats::default();
    for bi in 0..nblocks {
        let id = bsched_ir::BlockId::new(bi);
        let live_in = live.live_in(id).clone();
        let mut live_out = live.live_out(id).clone();
        if let Some(c) = func.block(id).term.cond_reg() {
            live_out.insert(c);
        }
        let insts = std::mem::take(&mut func.block_mut(id).insts);
        let dag = Dag::new(&insts);
        let weights = compute_weights(&insts, &dag, config);
        // Region-level stats only — never inside the candidate loop, so
        // the scheduler's hot path stays at current speed.
        if bsched_trace::enabled() {
            let loads = insts.iter().filter(|i| i.op.is_load()).count() as u64;
            bsched_trace::instant(
                bsched_trace::points::SCHED_REGION,
                func.name(),
                &[
                    ("block", bi as u64),
                    ("insts", insts.len() as u64),
                    ("loads", loads),
                    ("weight_sum", weights.iter().map(|&w| u64::from(w)).sum()),
                    (
                        "weight_max",
                        weights.iter().copied().max().unwrap_or(0).into(),
                    ),
                ],
            );
            for (slot, (inst, &w)) in insts.iter().zip(&weights).enumerate() {
                if inst.op.is_load() {
                    bsched_trace::instant(
                        bsched_trace::points::SCHED_LOAD_WEIGHT,
                        func.name(),
                        &[
                            ("block", bi as u64),
                            ("slot", slot as u64),
                            ("weight", u64::from(w)),
                        ],
                    );
                }
            }
        }
        let mut order = schedule_region_full(
            &insts,
            &dag,
            &weights,
            Some(PRESSURE_LIMIT),
            &live_in,
            &live_out,
            tie_break,
        );
        if config.kind == SchedulerKind::Exact {
            // The heuristic balanced schedule above is the incumbent:
            // on a zero budget (or immediate exhaustion) the emitted
            // schedule is byte-identical to the balanced arm's. Exact
            // orders may exceed the pressure gate — register overflow
            // becomes regalloc spills, and the legality validator and
            // checksum oracle guard correctness.
            let heuristic_cost = schedule_cost(&dag, &weights, &order);
            let span = bsched_trace::span(bsched_trace::points::SCHED_EXACT)
                .label_with(|| func.name().to_string())
                .arg("block", bi as u64)
                .arg("insts", insts.len() as u64);
            let outcome = schedule_region_exact(&dag, &weights, config.exact_budget, order);
            span.finish(&[
                ("nodes", outcome.nodes),
                ("proven", u64::from(outcome.proven)),
            ]);
            stats.regions += 1;
            stats.nodes += outcome.nodes;
            stats.heuristic_cost += heuristic_cost;
            stats.exact_cost += outcome.cost;
            if outcome.proven {
                stats.proven += 1;
            } else {
                stats.fallbacks += 1;
                // Budget exhaustion is reported, never silent: the
                // run report aggregates `fallbacks`, and tracing (when
                // enabled) pins the region.
                if bsched_trace::enabled() {
                    bsched_trace::instant(
                        bsched_trace::points::SCHED_EXACT_FALLBACK,
                        func.name(),
                        &[
                            ("block", bi as u64),
                            ("insts", outcome.order.len() as u64),
                            ("nodes", outcome.nodes),
                            ("best_cost", outcome.cost),
                            ("heuristic_cost", heuristic_cost),
                        ],
                    );
                }
            }
            order = outcome.order;
        }
        if let Some(sink) = audit.as_deref_mut() {
            sink.push(crate::audit::RegionSchedule {
                block: bi,
                insts: insts.clone(),
                weights: weights.clone(),
                order: order.clone(),
            });
        }
        let mut reordered = Vec::with_capacity(insts.len());
        let mut taken: Vec<Option<Inst>> = insts.into_iter().map(Some).collect();
        for i in order {
            reordered.push(taken[i].take().expect("schedule emitted an index twice"));
        }
        func.block_mut(id).insts = reordered;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::SchedulerKind;
    use bsched_ir::{Inst, Op, Reg, RegClass, RegionId};

    fn r(n: u32) -> Reg {
        Reg::virt(RegClass::Int, n)
    }
    fn f(n: u32) -> Reg {
        Reg::virt(RegClass::Float, n)
    }

    fn assert_valid(insts: &[Inst], order: &[usize]) {
        let dag = Dag::new(insts);
        let mut pos = vec![0usize; insts.len()];
        for (k, &i) in order.iter().enumerate() {
            pos[i] = k;
        }
        assert_eq!(order.len(), insts.len());
        let mut seen = vec![false; insts.len()];
        for &i in order {
            assert!(!seen[i], "index {i} repeated");
            seen[i] = true;
        }
        for i in 0..insts.len() {
            for &(t, _) in dag.succs(i) {
                assert!(pos[i] < pos[t as usize], "dependence {i} -> {t} violated");
            }
        }
    }

    /// Builds the DAG and weights for a straight-line region and
    /// schedules it.
    fn schedule_order(insts: &[Inst], config: &WeightConfig) -> Vec<usize> {
        let dag = Dag::new(insts);
        let weights = compute_weights(insts, &dag, config);
        schedule_region(insts, &dag, &weights)
    }

    /// Two load/consumer pairs plus one independent FP op.
    fn two_load_region() -> Vec<Inst> {
        vec![
            Inst::load(f(0), r(0), 0).with_region(RegionId::new(0)), // 0: L0
            Inst::op(Op::FAdd, f(10), &[f(0), f(0)]),                // 1: C0
            Inst::load(f(1), r(1), 0).with_region(RegionId::new(1)), // 2: L1
            Inst::op(Op::FAdd, f(11), &[f(1), f(1)]),                // 3: C1
            Inst::op(Op::FMul, f(12), &[f(5), f(6)]),                // 4: X
        ]
    }

    #[test]
    fn schedules_are_valid_permutations() {
        let insts = two_load_region();
        for kind in [SchedulerKind::Traditional, SchedulerKind::Balanced] {
            let order = schedule_order(&insts, &WeightConfig::new(kind));
            assert_valid(&insts, &order);
        }
    }

    #[test]
    fn balanced_places_independents_behind_loads() {
        let insts = two_load_region();
        let trad = schedule_order(&insts, &WeightConfig::new(SchedulerKind::Traditional));
        let bal = schedule_order(&insts, &WeightConfig::new(SchedulerKind::Balanced));
        let pos = |order: &[usize], i: usize| order.iter().position(|&x| x == i).unwrap();
        // Balanced: the independent multiply issues before the first
        // consumer, stretching the load shadows.
        assert!(
            pos(&bal, 4) < pos(&bal, 1),
            "balanced should fill the load shadow with X: {bal:?}"
        );
        // Both loads lead in both schedules.
        assert!(pos(&bal, 0) < 2 && pos(&bal, 2) < 3);
        assert!(pos(&trad, 0) < pos(&trad, 1));
    }

    #[test]
    fn chain_schedules_in_order() {
        let insts = vec![
            Inst::li(r(0), 1),
            Inst::op_imm(Op::Add, r(1), r(0), 1),
            Inst::op_imm(Op::Add, r(2), r(1), 1),
        ];
        let order = schedule_order(&insts, &WeightConfig::default());
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn ties_break_by_pressure_then_origin() {
        // Two equal-priority independent instructions: a store (frees 2)
        // and an li (defines 1). Store should win heuristic 1.
        let insts = vec![
            Inst::li(r(9), 5),                                        // 0
            Inst::store(f(1), r(2), 0).with_region(RegionId::new(0)), // 1
        ];
        let dag = Dag::new(&insts);
        let order = schedule_region(&insts, &dag, &[1, 1]);
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn empty_block_is_fine() {
        let order = schedule_order(&[], &WeightConfig::default());
        assert!(order.is_empty());
    }

    #[test]
    fn schedule_function_reorders_all_blocks() {
        use bsched_ir::FuncBuilder;
        let mut b = FuncBuilder::new("t");
        let x = b.iconst(1);
        let y = b.binop_imm(Op::Add, x, 2);
        let _z = b.binop_imm(Op::Add, y, 3);
        let blk = b.add_block();
        b.jmp(blk);
        b.switch_to(blk);
        let p = b.iconst(9);
        let _q = b.binop_imm(Op::Mul, p, 3);
        b.ret();
        let mut func = b.finish();
        let before: usize = func.inst_count();
        schedule_function(&mut func, &WeightConfig::default());
        assert_eq!(func.inst_count(), before);
        // Dependences inside each block still hold.
        for (_, block) in func.iter_blocks() {
            let dag = Dag::new(&block.insts);
            for i in 0..block.insts.len() {
                for &(t, _) in dag.succs(i) {
                    assert!(i < t as usize);
                }
            }
        }
    }

    #[test]
    fn large_random_region_schedules_quickly_and_validly() {
        // A few hundred instructions with mixed dependences.
        let mut insts = Vec::new();
        for k in 0..60u32 {
            insts.push(Inst::load(f(k), r(k % 4), i64::from(k) * 8).with_region(RegionId::new(0)));
            insts.push(Inst::op(Op::FMul, f(100 + k), &[f(k), f(k)]));
            insts.push(Inst::op(Op::FAdd, f(200 + k), &[f(100 + k), f(k)]));
            insts.push(
                Inst::store(f(200 + k), r(k % 4), i64::from(k) * 8 + 4096)
                    .with_region(RegionId::new(0)),
            );
        }
        for kind in [SchedulerKind::Traditional, SchedulerKind::Balanced] {
            let order = schedule_order(&insts, &WeightConfig::new(kind));
            assert_valid(&insts, &order);
        }
    }
}

#[cfg(test)]
mod pressure_tests {
    use super::*;
    use crate::weights::SchedulerKind;
    use bsched_ir::{Inst, Op, Reg, RegClass, RegionId};
    use std::collections::{HashMap, HashSet};

    fn r(n: u32) -> Reg {
        Reg::virt(RegClass::Int, n)
    }
    fn f(n: u32) -> Reg {
        Reg::virt(RegClass::Float, n)
    }

    /// A region with `n` independent load→consume pairs.
    fn wide_region(n: u32) -> Vec<Inst> {
        let mut insts = Vec::new();
        for k in 0..n {
            insts.push(
                Inst::load(f(2 * k), r(k % 4), i64::from(k) * 8).with_region(RegionId::new(0)),
            );
        }
        for k in 0..n {
            insts.push(Inst::op(Op::FMul, f(2 * k + 1), &[f(2 * k), f(2 * k)]));
        }
        for k in 0..n {
            // A separate region: stores must not conservatively alias the
            // loads (different base registers cannot be disambiguated by
            // displacement), or the DAG itself would force every load
            // before every store and make high pressure intrinsic.
            insts.push(
                Inst::store(f(2 * k + 1), r(k % 4), i64::from(k) * 8).with_region(RegionId::new(1)),
            );
        }
        insts
    }

    /// Max simultaneously-live float values over a schedule.
    fn max_live_float(insts: &[Inst], order: &[usize]) -> usize {
        let seq: Vec<&Inst> = order.iter().map(|&i| &insts[i]).collect();
        let mut last_use: HashMap<Reg, usize> = HashMap::new();
        for (pos, inst) in seq.iter().enumerate() {
            for &s in inst.srcs() {
                last_use.insert(s, pos);
            }
        }
        let mut live: HashSet<Reg> = HashSet::new();
        let mut max = 0;
        for (pos, inst) in seq.iter().enumerate() {
            if let Some(d) = inst.dst {
                if last_use.get(&d).is_some_and(|&lu| lu > pos) {
                    live.insert(d);
                }
            }
            for &s in inst.srcs() {
                if last_use.get(&s) == Some(&pos) {
                    live.remove(&s);
                }
            }
            max = max.max(live.iter().filter(|x| x.class() == RegClass::Float).count());
        }
        max
    }

    #[test]
    fn gate_bounds_live_values() {
        let insts = wide_region(60);
        let dag = Dag::new(&insts);
        let w = compute_weights(&insts, &dag, &WeightConfig::new(SchedulerKind::Balanced));
        let gated = schedule_region_with_pressure(&insts, &dag, &w, Some(12));
        let free = schedule_region_with_pressure(&insts, &dag, &w, None);
        let gated_live = max_live_float(&insts, &gated);
        let free_live = max_live_float(&insts, &free);
        assert!(
            gated_live <= 13,
            "gate must bound live floats, got {gated_live}"
        );
        assert!(
            free_live > gated_live,
            "ungated balanced scheduling hoists more ({free_live} vs {gated_live})"
        );
    }

    #[test]
    fn boundary_liveness_shrinks_the_budget() {
        let insts = wide_region(40);
        let dag = Dag::new(&insts);
        let w = compute_weights(&insts, &dag, &WeightConfig::new(SchedulerKind::Balanced));
        // Pretend 10 extra float values are live through this block.
        let live_in: HashSet<Reg> = (100..110).map(f).collect();
        let bounded = schedule_region_full(
            &insts,
            &dag,
            &w,
            Some(12),
            &live_in,
            &live_in,
            TieBreak::Standard,
        );
        let live = max_live_float(&insts, &bounded);
        assert!(
            live <= 3,
            "10 live-through values leave only ~2 slots under a ceiling of 12, got {live}"
        );
    }

    #[test]
    fn gate_never_breaks_dependences() {
        let insts = wide_region(50);
        let dag = Dag::new(&insts);
        let w = compute_weights(&insts, &dag, &WeightConfig::new(SchedulerKind::Balanced));
        for limit in [Some(1), Some(4), Some(26), None] {
            let order = schedule_region_with_pressure(&insts, &dag, &w, limit);
            let mut pos = vec![0; insts.len()];
            for (k, &i) in order.iter().enumerate() {
                pos[i] = k;
            }
            for i in 0..insts.len() {
                for &(t, _) in dag.succs(i) {
                    assert!(pos[i] < pos[t as usize], "limit {limit:?} broke deps");
                }
            }
        }
    }
}
