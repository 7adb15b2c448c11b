//! Oracle-grade property tests for the exact scheduler.
//!
//! The branch-and-bound arm claims to compute the *optimal* issue span
//! under the balanced cost model. These tests check that claim against
//! the only oracle that needs no cleverness: exhaustive enumeration of
//! every legal schedule of small random regions. On top of the
//! optimality oracle they pin the contracts the rest of the stack leans
//! on — the exact cost never exceeds any heuristic's, the reported cost
//! matches an independent replay of the reported order, the emitted
//! order is a legal topological order, and the whole search is a pure
//! function of its inputs (byte-identical across threads).

mod common;

use bsched_core::{
    compute_weights, schedule_cost, schedule_region, schedule_region_exact, SchedulerKind,
    WeightConfig, DEFAULT_EXACT_BUDGET,
};
use bsched_ir::Dag;
use bsched_util::Prng;
use common::{balanced_inputs, gen_region};

/// The exhaustive oracle: the minimum [`schedule_cost`] over *every*
/// topological order of the DAG, found by depth-first enumeration of
/// available sets. Only callable for small regions (≤ 8 instructions
/// here — at most 8! = 40320 leaves).
fn brute_force_optimum(dag: &Dag, weights: &[u32]) -> u64 {
    fn go(
        dag: &Dag,
        weights: &[u32],
        pred_left: &mut [usize],
        order: &mut Vec<usize>,
        best: &mut u64,
    ) {
        if order.len() == dag.len() {
            *best = (*best).min(schedule_cost(dag, weights, order));
            return;
        }
        for i in 0..dag.len() {
            if pred_left[i] != usize::MAX && pred_left[i] == 0 {
                pred_left[i] = usize::MAX; // mark scheduled
                for &(t, _) in dag.succs(i) {
                    pred_left[t as usize] -= 1;
                }
                order.push(i);
                go(dag, weights, pred_left, order, best);
                order.pop();
                for &(t, _) in dag.succs(i) {
                    pred_left[t as usize] += 1;
                }
                pred_left[i] = 0;
            }
        }
    }
    let mut pred_left: Vec<usize> = (0..dag.len()).map(|i| dag.preds(i).len()).collect();
    let mut best = u64::MAX;
    go(dag, weights, &mut pred_left, &mut Vec::new(), &mut best);
    best
}

fn is_topological(dag: &Dag, order: &[usize]) -> bool {
    let mut pos = vec![usize::MAX; dag.len()];
    for (p, &i) in order.iter().enumerate() {
        pos[i] = p;
    }
    (0..dag.len()).all(|i| {
        pos[i] != usize::MAX && dag.succs(i).iter().all(|&(t, _)| pos[i] < pos[t as usize])
    })
}

/// Regions of the oracle's seeded stream picked for search depth, on
/// top of its first 20. Almost every random region this small is proven
/// at the root (the balanced incumbent already meets the lower bound),
/// so the stream is filtered by node count, as `exact_pins` filters its
/// larger regions: each of these expands 2–38 nodes at the default
/// budget, which drives the oracle through the branching, the bound and
/// the dominance memo.
const BRANCHING: [usize; 40] = [
    36, 37, 57, 100, 106, 114, 132, 146, 152, 183, 197, 229, 254, 273, 277, 301, 303, 311, 346,
    363, 370, 372, 374, 395, 410, 411, 432, 433, 460, 498, 503, 505, 526, 544, 550, 574, 589, 601,
    613, 681,
];

/// The core oracle property: on regions small enough to enumerate, the
/// branch-and-bound cost equals the exhaustive minimum over all legal
/// schedules, the search proves it within the default budget, and the
/// emitted order is legal and replays to the reported cost. At least
/// half of the cases must reach the search proper (more than one node).
#[test]
fn exact_matches_the_brute_force_optimum_on_random_dags() {
    let mut rng = Prng::new(0xEAC7_0001);
    let regions: Vec<_> = (0..=BRANCHING[BRANCHING.len() - 1])
        .map(|_| {
            let len = rng.index(7) + 2; // 2..=8 instructions
            gen_region(&mut rng.fork(), len)
        })
        .collect();
    let cases: Vec<usize> = (0..20).chain(BRANCHING).collect();
    let mut searched = 0;
    for &case in &cases {
        let insts = &regions[case];
        let len = insts.len();
        let (dag, weights, incumbent) = balanced_inputs(insts);
        let oracle = brute_force_optimum(&dag, &weights);
        let out = schedule_region_exact(&dag, &weights, DEFAULT_EXACT_BUDGET, incumbent);
        assert!(
            out.proven,
            "case {case}: {len} instructions must be provable"
        );
        assert_eq!(
            out.cost, oracle,
            "case {case}: exact cost diverged from exhaustive enumeration\n{insts:#?}"
        );
        assert!(
            is_topological(&dag, &out.order),
            "case {case}: illegal order"
        );
        assert_eq!(
            schedule_cost(&dag, &weights, &out.order),
            out.cost,
            "case {case}: reported cost does not replay"
        );
        searched += usize::from(out.nodes > 1);
    }
    assert!(
        2 * searched >= cases.len(),
        "only {searched} of {} cases expanded more than one node",
        cases.len()
    );
}

/// The exact arm never loses to any heuristic: both the balanced and
/// the traditional list schedules, evaluated under the same balanced
/// cost model the search optimizes, upper-bound the exact cost.
#[test]
fn exact_is_never_beaten_by_a_heuristic() {
    let mut rng = Prng::new(0xEAC7_0002);
    for case in 0..40 {
        let len = rng.index(9) + 2; // 2..=10 instructions
        let insts = gen_region(&mut rng.fork(), len);
        let (dag, weights, balanced) = balanced_inputs(&insts);
        let trad_weights =
            compute_weights(&insts, &dag, &WeightConfig::new(SchedulerKind::Traditional));
        let traditional = schedule_region(&insts, &dag, &trad_weights);
        let out = schedule_region_exact(&dag, &weights, DEFAULT_EXACT_BUDGET, balanced.clone());
        assert!(
            out.cost <= schedule_cost(&dag, &weights, &balanced),
            "case {case}: exact lost to the balanced heuristic"
        );
        assert!(
            out.cost <= schedule_cost(&dag, &weights, &traditional),
            "case {case}: exact lost to the traditional heuristic"
        );
    }
}

/// The search is a pure function of (DAG, weights, budget, incumbent):
/// running it concurrently from several threads yields byte-identical
/// outcomes — order, cost, proven flag, and node count. Wall-clock
/// budgets would fail this; the node budget must not.
#[test]
fn outcomes_are_deterministic_across_threads() {
    let mut rng = Prng::new(0xEAC7_0003);
    let insts = gen_region(&mut rng, 10);
    let (dag, weights, incumbent) = balanced_inputs(&insts);
    // A budget small enough that some searches may exhaust it: the
    // fallback path must be exactly as deterministic as the proven one.
    for budget in [0, 17, DEFAULT_EXACT_BUDGET] {
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (dag, weights, incumbent) = (&dag, &weights, &incumbent);
                    scope.spawn(move || {
                        schedule_region_exact(dag, weights, budget, incumbent.clone())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        for o in &outcomes[1..] {
            assert_eq!(
                o.order, outcomes[0].order,
                "budget {budget}: order diverged"
            );
            assert_eq!(o.cost, outcomes[0].cost, "budget {budget}: cost diverged");
            assert_eq!(
                o.proven, outcomes[0].proven,
                "budget {budget}: proven diverged"
            );
            assert_eq!(
                o.nodes, outcomes[0].nodes,
                "budget {budget}: nodes diverged"
            );
        }
    }
}

/// Budgets are monotone: more nodes never produce a worse schedule, and
/// once an optimum is proven, larger budgets report the same cost.
#[test]
fn larger_budgets_never_hurt() {
    let mut rng = Prng::new(0xEAC7_0004);
    for _ in 0..10 {
        let insts = gen_region(&mut rng.fork(), 9);
        let (dag, weights, incumbent) = balanced_inputs(&insts);
        let mut last = u64::MAX;
        let mut proven_cost = None;
        for budget in [0, 8, 64, 512, DEFAULT_EXACT_BUDGET] {
            let out = schedule_region_exact(&dag, &weights, budget, incumbent.clone());
            assert!(out.cost <= last, "budget {budget} made the schedule worse");
            last = out.cost;
            if out.proven {
                if let Some(p) = proven_cost {
                    assert_eq!(out.cost, p, "two proven optima disagree");
                }
                proven_cost = Some(out.cost);
            }
        }
        assert_eq!(proven_cost, Some(last), "default budget must prove 9 insts");
    }
}
