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
//! * **Dominance memoization.** States are keyed by a 64-bit hash of
//!   the scheduled bitset's words followed by each unscheduled
//!   instruction's readiness slack relative to the clock, absorbed one
//!   word at a time by a folded-multiply mixer (in two alternating
//!   lanes) and finished by the splitmix64 finalizer; a revisit at the
//!   same or a later clock is dominated and pruned. The key is a hash,
//!   so a collision could prune a distinct state: about
//!   `states² / 2⁶⁵` per region, at most ~7·10⁻¹¹ at the default
//!   50,000 nodes.
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
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

/// Multiplier of the memo key's word mixer (the 64-bit golden ratio).
const MIX_K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Absorbs one word into a memo key: a 64×64→128-bit multiply whose
/// halves are folded back together, one dependent multiply per word.
#[inline]
fn mix(h: u64, w: u64) -> u64 {
    let p = u128::from(h ^ w) * u128::from(MIX_K);
    (p as u64) ^ ((p >> 64) as u64)
}

/// The splitmix64 finalizer: spreads the last absorbed word over the
/// key's low bits, which pick the hash-table bucket.
#[inline]
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A `Hasher` that passes a `u64` key through unchanged: memo keys are
/// already mixed by [`mix`] and [`finalize`].
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("memo keys are hashed with write_u64");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// Calls `f(j)` for every index `j < n` whose bit in `bits` is clear.
#[inline]
fn for_each_clear(bits: &[u64], n: usize, mut f: impl FnMut(usize)) {
    for (w, &word) in bits.iter().enumerate() {
        let mut clear = !word;
        if (w + 1) * 64 > n {
            clear &= (1u64 << (n - w * 64)) - 1;
        }
        while clear != 0 {
            f(w * 64 + clear.trailing_zeros() as usize);
            clear &= clear - 1;
        }
    }
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
    memo: HashMap<u64, u64, BuildHasherDefault<PassThrough>>,
    /// Candidate stack shared by every depth: a node pushes its
    /// candidates on top and truncates back on return, so each frame's
    /// candidates sit in `cands[base..end]` below its children's.
    cands: Vec<usize>,
    /// Undo records of every issued candidate on the current path,
    /// truncated on backtrack.
    undo: Vec<EarliestUndo>,
}

impl Search<'_> {
    fn dfs(&mut self, cycle: u64) {
        if self.order.len() == self.dag.len() {
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
        let base = self.cands.len();
        self.expand(cycle, base);
        self.cands.truncate(base);
    }

    /// Expands one node whose candidates go to `cands[base..]`.
    fn expand(&mut self, cycle: u64, base: usize) {
        let n = self.dag.len();

        // One pass over the unscheduled instructions. It rebuilds the
        // ready set from `pred_left` rather than maintaining it
        // incrementally (immune to the ordering bugs positional undo of
        // a shared vector invites under backtracking), and gathers what
        // the lower bound needs: since `max(next, e) + t` is
        // `max(next + t, e + t)`, the bound's maximum over the
        // unscheduled remainder is `max(next + max_tail, max_etail)`.
        let mut min_ready = u64::MAX;
        let mut max_tail = 0;
        let mut max_etail = 0;
        {
            let (earliest, tail, pred_left, cands) =
                (&self.earliest, &self.tail, &self.pred_left, &mut self.cands);
            for_each_clear(&self.scheduled, n, |j| {
                let (e, t) = (earliest[j], tail[j]);
                max_tail = max_tail.max(t);
                max_etail = max_etail.max(e + t);
                if pred_left[j] == 0 {
                    min_ready = min_ready.min(e);
                    cands.push(j);
                }
            });
        }
        assert!(
            self.cands.len() > base,
            "non-empty region has an available instruction"
        );

        // Clock normalization (see module docs): advance to the next
        // operand-ready time; only then-ready instructions branch.
        let next = cycle.max(min_ready);

        // Lower bound over the unscheduled remainder.
        let remaining = (n - self.order.len()) as u64;
        let lb = (next + remaining).max(next + max_tail).max(max_etail);
        // `>=`: ties keep the incumbent, so the exact arm perturbs the
        // balanced schedule only on proven strict improvement.
        if lb >= self.best_cost {
            return;
        }

        // Dominance memo: scheduled set + per-unscheduled readiness
        // slack relative to the (normalized) clock.
        // Consecutive words alternate between two lanes, which halves
        // the chain of dependent multiplies.
        let (mut a, mut b) = (0, MIX_K);
        for &word in &self.scheduled {
            (a, b) = (b, mix(a, word));
        }
        let earliest = &self.earliest;
        for_each_clear(&self.scheduled, n, |j| {
            (a, b) = (b, mix(a, earliest[j].saturating_sub(next)));
        });
        match self.memo.entry(finalize(mix(a, b))) {
            Entry::Occupied(mut seen) => {
                if *seen.get() <= next {
                    return;
                }
                seen.insert(next);
            }
            Entry::Vacant(slot) => {
                slot.insert(next);
            }
        }

        // Branch on ready candidates, most critical (longest tail)
        // first so good incumbents appear early; index breaks ties for
        // determinism.
        let mut end = base;
        for k in base..self.cands.len() {
            let c = self.cands[k];
            if self.earliest[c] <= next {
                self.cands[end] = c;
                end += 1;
            }
        }
        self.cands.truncate(end);
        let tail = &self.tail;
        self.cands[base..].sort_unstable_by_key(|&c| (std::cmp::Reverse(tail[c]), c));

        for k in base..end {
            let c = self.cands[k];
            self.scheduled[c / 64] |= 1 << (c % 64);
            self.order.push(c);
            let mark = self.undo.len();
            for &(t, kind) in self.dag.succs(c) {
                let t = t as usize;
                self.undo.push(EarliestUndo {
                    target: t,
                    prev: self.earliest[t],
                });
                let lat = edge_latency(kind, self.weights[c]);
                self.earliest[t] = self.earliest[t].max(next + lat);
                self.pred_left[t] -= 1;
            }

            self.dfs(next + 1);

            for u in self.undo.drain(mark..).rev() {
                self.earliest[u.target] = u.prev;
                self.pred_left[u.target] += 1;
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
        memo: HashMap::default(),
        cands: Vec::new(),
        undo: Vec::new(),
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
