//! Exact region scheduling: a branch-and-bound search that computes the
//! optimal issue span under the balanced cost model.
//!
//! The list scheduler is greedy; the paper only ever reports its results
//! *relative to traditional scheduling*, so we never learn how much
//! either leaves on the table. This module turns those relative numbers
//! into absolute ones: [`schedule_region_exact`] searches the space of
//! legal schedules for the one minimizing [`schedule_cost`] — the exact
//! issue-span model the list scheduler's internal clock computes, with
//! data edges carrying the producer's (balanced) weight and every other
//! edge one cycle. Minimizing issue span under weights-as-latencies is
//! minimizing expected stall cycles plus the constant `n` issue slots,
//! so the exact arm optimizes precisely what balanced scheduling
//! heuristically targets.
//!
//! # Search
//!
//! Depth-first branch and bound over issue prefixes, seeded with the
//! balanced heuristic schedule as the incumbent:
//!
//! * **Clock normalization.** At each node the clock advances to the
//!   earliest time any available instruction can issue, and only
//!   instructions ready at that time are branched on. An exchange
//!   argument makes this exact: an idle slot with a ready instruction
//!   can always absorb that instruction without delaying anything else,
//!   so some optimal completion always issues a ready instruction at
//!   the next operand-ready time.
//! * **Lower bound.** `max(clock + remaining, max_j issue_j + tail_j)`
//!   where `tail_j` is the static weighted critical path from `j` to a
//!   sink; subtrees that cannot *strictly* beat the incumbent are cut
//!   (ties keep the heuristic order, so the exact arm only perturbs a
//!   schedule when it has proof of improvement).
//! * **Dominance memoization.** States are keyed by an FNV-1a hash of
//!   the scheduled bitset plus each unscheduled instruction's readiness
//!   slack relative to the clock; a revisit at the same or a later
//!   clock is dominated and pruned.
//!
//! # Budget
//!
//! The search explores at most `budget` nodes — a deterministic,
//! machine-independent unit, so budgeted results are cacheable and
//! reproducible (wall-clock deadlines would not be). On exhaustion the
//! best schedule found so far is returned with `proven = false`; with a
//! budget of zero that is byte-for-byte the balanced incumbent. The
//! caller reports exhaustion (run report + trace event) — fallback is
//! never silent.

use bsched_ir::{Dag, DepKind};
use bsched_util::Fnv1a;
use std::collections::HashMap;

/// Default node budget for the branch-and-bound search. Paper-sized
/// regions (tens of instructions) usually prove optimality well under
/// this; unrolled bodies fall back to best-found-so-far.
pub const DEFAULT_EXACT_BUDGET: u64 = 50_000;

/// What one exact search produced.
#[derive(Debug, Clone)]
pub struct ExactOutcome {
    /// The best schedule found (the incumbent when nothing better was
    /// proven within budget).
    pub order: Vec<usize>,
    /// Issue-span cost of `order` under [`schedule_cost`].
    pub cost: u64,
    /// `true` when the search ran to completion, making `cost` the
    /// proven optimum; `false` when the node budget was exhausted and
    /// `cost` is only an upper bound.
    pub proven: bool,
    /// Nodes the search expanded (deterministic; the budget's unit).
    pub nodes: u64,
}

/// Aggregated exact-search statistics over every region of a function
/// (and, further up the stack, over every cell of a harness run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactStats {
    /// Regions the exact arm searched.
    pub regions: u64,
    /// Regions whose optimum was proven within budget.
    pub proven: u64,
    /// Regions that exhausted the node budget and fell back to the
    /// best-found-so-far schedule (the balanced incumbent at worst).
    pub fallbacks: u64,
    /// Total nodes expanded across all searches.
    pub nodes: u64,
    /// Summed issue-span cost of the balanced incumbent schedules.
    pub heuristic_cost: u64,
    /// Summed issue-span cost of the emitted (exact or best-found)
    /// schedules. `exact_cost <= heuristic_cost` always.
    pub exact_cost: u64,
}

impl ExactStats {
    /// Folds another function's (or cell's) stats into this one.
    pub fn merge(&mut self, other: &ExactStats) {
        self.regions += other.regions;
        self.proven += other.proven;
        self.fallbacks += other.fallbacks;
        self.nodes += other.nodes;
        self.heuristic_cost += other.heuristic_cost;
        self.exact_cost += other.exact_cost;
    }

    /// How close the heuristic came to the exact bound, as a
    /// percentage: `100 * exact_cost / heuristic_cost`. 100 means the
    /// balanced heuristic matched the bound on every region; lower
    /// means headroom was left. Returns 100 when nothing was searched.
    #[must_use]
    pub fn pct_of_optimal(&self) -> f64 {
        if self.heuristic_cost == 0 {
            return 100.0;
        }
        100.0 * self.exact_cost as f64 / self.heuristic_cost as f64
    }
}

/// Per-edge latency under the scheduling cost model: a data edge makes
/// the consumer wait out the producer's weight; anti/output/memory/
/// order edges only force issue order (one cycle).
fn edge_latency(kind: DepKind, producer_weight: u32) -> u64 {
    match kind {
        DepKind::Data => u64::from(producer_weight),
        _ => 1,
    }
}

/// Issue-span cost of a schedule under weights-as-latencies — the exact
/// quantity the list scheduler's internal clock computes for its own
/// emitted order.
///
/// Replays `order` on a one-issue-per-cycle machine: instruction `i`
/// issues at `max(clock, earliest[i])`, the clock becomes that plus
/// one, and each successor's `earliest` is raised by the edge latency.
/// The result is the final clock value (last issue + 1). Stall cycles
/// are `cost - n`, so comparing costs compares expected stalls.
///
/// # Panics
///
/// Panics if `weights`/`order` do not match the DAG, or `order` is not
/// a permutation that respects the DAG (debug assertions).
#[must_use]
pub fn schedule_cost(dag: &Dag, weights: &[u32], order: &[usize]) -> u64 {
    let n = dag.len();
    assert_eq!(weights.len(), n, "weights do not match region");
    assert_eq!(order.len(), n, "order does not match region");
    let mut earliest = vec![0u64; n];
    let mut cycle = 0u64;
    for &i in order {
        let issue = cycle.max(earliest[i]);
        cycle = issue + 1;
        for &(t, kind) in dag.succs(i) {
            let lat = edge_latency(kind, weights[i]);
            let e = &mut earliest[t as usize];
            *e = (*e).max(issue + lat);
        }
    }
    cycle
}

/// One undo record for backtracking: a successor's `earliest` before
/// the candidate's issue raised it.
struct EarliestUndo {
    target: usize,
    prev: u64,
}

struct Search<'a> {
    dag: &'a Dag,
    weights: &'a [u32],
    /// `tail[j]` = static lower bound on `cost - issue_j` (weighted
    /// critical path from `j` through a sink, counting `j`'s slot).
    tail: Vec<u64>,
    budget: u64,
    nodes: u64,
    exhausted: bool,
    best_cost: u64,
    best_order: Vec<usize>,
    earliest: Vec<u64>,
    pred_left: Vec<usize>,
    order: Vec<usize>,
    /// Scheduled-set bitset (`n` bits in u64 words).
    scheduled: Vec<u64>,
    /// Dominance memo: state key -> earliest clock the state was
    /// expanded at. A revisit at the same or a later clock is pruned.
    memo: HashMap<u64, u64>,
}

impl Search<'_> {
    fn dfs(&mut self, cycle: u64) {
        let n = self.dag.len();
        if self.order.len() == n {
            if cycle < self.best_cost {
                self.best_cost = cycle;
                self.best_order.clone_from(&self.order);
            }
            return;
        }
        if self.nodes >= self.budget {
            self.exhausted = true;
            return;
        }
        self.nodes += 1;

        // The ready set is rebuilt from `pred_left` and the scheduled
        // bitset at every node rather than maintained incrementally: an
        // O(n) scan per node (the lower-bound loop below is already
        // O(n)), and immune to the ordering bugs positional undo of a
        // shared vector invites under backtracking.
        let available: Vec<usize> = (0..n)
            .filter(|&i| self.scheduled[i / 64] >> (i % 64) & 1 == 0 && self.pred_left[i] == 0)
            .collect();

        // Clock normalization (see module docs): advance to the next
        // operand-ready time; only then-ready instructions branch.
        let min_ready = available
            .iter()
            .map(|&c| self.earliest[c])
            .min()
            .expect("non-empty region has an available instruction");
        let next = cycle.max(min_ready);

        // Lower bound over the unscheduled remainder.
        let remaining = (n - self.order.len()) as u64;
        let mut lb = next + remaining;
        for (w, &word) in self.scheduled.iter().enumerate() {
            let mut unset = !word;
            if (w + 1) * 64 > n {
                unset &= (1u64 << (n - w * 64)) - 1;
            }
            while unset != 0 {
                let j = w * 64 + unset.trailing_zeros() as usize;
                unset &= unset - 1;
                lb = lb.max(next.max(self.earliest[j]) + self.tail[j]);
            }
        }
        // `>=`: ties keep the incumbent, so the exact arm perturbs the
        // balanced schedule only on proven strict improvement.
        if lb >= self.best_cost {
            return;
        }

        // Dominance memo: scheduled set + per-unscheduled readiness
        // slack relative to the (normalized) clock.
        let mut h = Fnv1a::new();
        for &word in &self.scheduled {
            h.write(&word.to_le_bytes());
        }
        for (j, &e) in self.earliest.iter().enumerate() {
            if self.scheduled[j / 64] >> (j % 64) & 1 == 0 {
                h.write(&e.saturating_sub(next).to_le_bytes());
            }
        }
        let key = h.finish();
        if let Some(&seen) = self.memo.get(&key) {
            if seen <= next {
                return;
            }
        }
        self.memo.insert(key, next);

        // Branch on ready candidates, most critical (longest tail)
        // first so good incumbents appear early; index breaks ties for
        // determinism.
        let mut cands: Vec<usize> = available
            .into_iter()
            .filter(|&c| self.earliest[c] <= next)
            .collect();
        cands.sort_by_key(|&c| (std::cmp::Reverse(self.tail[c]), c));

        for c in cands {
            self.scheduled[c / 64] |= 1 << (c % 64);
            self.order.push(c);
            let mut undo: Vec<EarliestUndo> = Vec::new();
            for &(t, kind) in self.dag.succs(c) {
                let t = t as usize;
                undo.push(EarliestUndo {
                    target: t,
                    prev: self.earliest[t],
                });
                let lat = edge_latency(kind, self.weights[c]);
                self.earliest[t] = self.earliest[t].max(next + lat);
                self.pred_left[t] -= 1;
            }

            self.dfs(next + 1);

            for &(t, _) in self.dag.succs(c) {
                self.pred_left[t as usize] += 1;
            }
            for u in undo.into_iter().rev() {
                self.earliest[u.target] = u.prev;
            }
            self.order.pop();
            self.scheduled[c / 64] &= !(1 << (c % 64));
            if self.exhausted {
                return;
            }
        }
    }
}

/// Branch-and-bound search for the schedule minimizing
/// [`schedule_cost`], seeded with `incumbent` (the balanced heuristic
/// schedule) as the initial upper bound.
///
/// Explores at most `budget` nodes; see the module docs for the budget
/// semantics. With `budget == 0` the incumbent is returned untouched
/// (`proven == false` unless the region is trivial).
///
/// # Panics
///
/// Panics if `weights` or `incumbent` do not match the DAG.
#[must_use]
pub fn schedule_region_exact(
    dag: &Dag,
    weights: &[u32],
    budget: u64,
    incumbent: Vec<usize>,
) -> ExactOutcome {
    let n = dag.len();
    assert_eq!(weights.len(), n, "weights do not match region");
    assert_eq!(incumbent.len(), n, "incumbent does not match region");
    let incumbent_cost = schedule_cost(dag, weights, &incumbent);
    if n <= 1 {
        return ExactOutcome {
            order: incumbent,
            cost: incumbent_cost,
            proven: true,
            nodes: 0,
        };
    }

    // Static weighted critical path to a sink, counting each node's own
    // issue slot: tail[j] = max(1, max over edges (lat + tail[t])).
    // DAG edges always point forward in pre-schedule order.
    let mut tail = vec![1u64; n];
    for j in (0..n).rev() {
        let mut t_j = 1u64;
        for &(t, kind) in dag.succs(j) {
            t_j = t_j.max(edge_latency(kind, weights[j]) + tail[t as usize]);
        }
        tail[j] = t_j;
    }

    let pred_left: Vec<usize> = (0..n).map(|i| dag.preds(i).len()).collect();
    let mut search = Search {
        dag,
        weights,
        tail,
        budget,
        nodes: 0,
        exhausted: false,
        best_cost: incumbent_cost,
        best_order: incumbent,
        earliest: vec![0; n],
        pred_left,
        order: Vec::with_capacity(n),
        scheduled: vec![0; n.div_ceil(64)],
        memo: HashMap::new(),
    };
    search.dfs(0);
    ExactOutcome {
        order: search.best_order,
        cost: search.best_cost,
        proven: !search.exhausted,
        nodes: search.nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::schedule_region;
    use crate::weights::{compute_weights, SchedulerKind, WeightConfig};
    use bsched_ir::{Inst, Op, Reg, RegClass, RegionId};

    fn r(n: u32) -> Reg {
        Reg::virt(RegClass::Int, n)
    }
    fn f(n: u32) -> Reg {
        Reg::virt(RegClass::Float, n)
    }

    /// Two load/consumer pairs plus one independent FP op (the shape of
    /// the scheduler tests).
    fn two_load_region() -> Vec<Inst> {
        vec![
            Inst::load(f(0), r(0), 0).with_region(RegionId::new(0)),
            Inst::op(Op::FAdd, f(10), &[f(0), f(0)]),
            Inst::load(f(1), r(1), 0).with_region(RegionId::new(1)),
            Inst::op(Op::FAdd, f(11), &[f(1), f(1)]),
            Inst::op(Op::FMul, f(12), &[f(5), f(6)]),
        ]
    }

    fn balanced_setup(insts: &[Inst]) -> (Dag, Vec<u32>, Vec<usize>) {
        let dag = Dag::new(insts);
        let weights = compute_weights(insts, &dag, &WeightConfig::new(SchedulerKind::Balanced));
        let order = schedule_region(insts, &dag, &weights);
        (dag, weights, order)
    }

    #[test]
    fn cost_matches_the_list_schedulers_clock_on_a_chain() {
        // li -> add -> add issues back to back: cost = 3 issues, with
        // each data edge adding its (unit) latency already absorbed.
        let insts = vec![
            Inst::li(r(0), 1),
            Inst::op_imm(Op::Add, r(1), r(0), 1),
            Inst::op_imm(Op::Add, r(2), r(1), 1),
        ];
        let dag = Dag::new(&insts);
        let w: Vec<u32> = insts.iter().map(|i| i.op.latency()).collect();
        assert_eq!(schedule_cost(&dag, &w, &[0, 1, 2]), 3);
    }

    #[test]
    fn exact_never_loses_to_the_incumbent() {
        let insts = two_load_region();
        let (dag, weights, incumbent) = balanced_setup(&insts);
        let inc_cost = schedule_cost(&dag, &weights, &incumbent);
        let out = schedule_region_exact(&dag, &weights, DEFAULT_EXACT_BUDGET, incumbent);
        assert!(out.proven, "5 instructions must be provable");
        assert!(out.cost <= inc_cost);
        assert_eq!(out.cost, schedule_cost(&dag, &weights, &out.order));
    }

    #[test]
    fn zero_budget_returns_the_incumbent_untouched() {
        let insts = two_load_region();
        let (dag, weights, incumbent) = balanced_setup(&insts);
        let out = schedule_region_exact(&dag, &weights, 0, incumbent.clone());
        assert_eq!(
            out.order, incumbent,
            "budget 0 must not perturb the schedule"
        );
        assert!(!out.proven);
        assert_eq!(out.nodes, 0);
    }

    #[test]
    fn trivial_regions_are_proven_for_free() {
        let insts = vec![Inst::li(r(0), 1)];
        let dag = Dag::new(&insts);
        let out = schedule_region_exact(&dag, &[1], 0, vec![0]);
        assert!(out.proven);
        assert_eq!(out.cost, 1);
    }

    #[test]
    fn exact_finds_the_interleaving_the_greedy_misses() {
        // Two loads with one consumer each and no independent filler:
        // optimal interleaves load/load/consumer/consumer.
        let insts = vec![
            Inst::load(f(0), r(0), 0).with_region(RegionId::new(0)),
            Inst::op(Op::FAdd, f(10), &[f(0), f(0)]),
            Inst::load(f(1), r(1), 0).with_region(RegionId::new(1)),
            Inst::op(Op::FAdd, f(11), &[f(1), f(1)]),
        ];
        let (dag, weights, incumbent) = balanced_setup(&insts);
        let out = schedule_region_exact(&dag, &weights, DEFAULT_EXACT_BUDGET, incumbent);
        assert!(out.proven);
        // Both loads issue before either consumer in any optimal order.
        let pos = |i: usize| out.order.iter().position(|&x| x == i).unwrap();
        assert!(pos(0) < 2 && pos(2) < 2, "loads lead: {:?}", out.order);
    }

    #[test]
    fn stats_merge_and_percentage() {
        let mut a = ExactStats {
            regions: 1,
            proven: 1,
            fallbacks: 0,
            nodes: 10,
            heuristic_cost: 10,
            exact_cost: 9,
        };
        let b = ExactStats {
            regions: 1,
            proven: 0,
            fallbacks: 1,
            nodes: 5,
            heuristic_cost: 10,
            exact_cost: 10,
        };
        a.merge(&b);
        assert_eq!(a.regions, 2);
        assert_eq!(a.fallbacks, 1);
        assert_eq!(a.nodes, 15);
        assert!((a.pct_of_optimal() - 95.0).abs() < 1e-9);
        assert!((ExactStats::default().pct_of_optimal() - 100.0).abs() < 1e-9);
    }
}
