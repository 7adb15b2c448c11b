//! Pins the exact scheduler's search trajectory.
//!
//! `exact_props` checks what the branch-and-bound search returns (the
//! optimum, legality, determinism). This file pins *how* it gets there:
//! for a fixed set of seeded random regions and node budgets, an FNV
//! digest of every `(order, cost, proven, nodes)` outcome must equal a
//! recorded table. The node count is the budget's unit and the column
//! `results/optimality.csv` reports, so a change to the search that
//! keeps every optimum but visits one node more or less — a different
//! branch order, a weaker or stronger bound, a memo that prunes
//! differently — fails here on a few hundred small searches instead of
//! only in the full optimality regeneration.
//!
//! The regions grow up to 48 instructions so that the larger budgets
//! run out on some of them: budget exhaustion (best-found-so-far with
//! `proven == false`) is pinned as exactly as proven optima.

mod common;

use bsched_core::{schedule_region_exact, DEFAULT_EXACT_BUDGET};
use bsched_util::{Fnv1a, Prng};
use common::{balanced_inputs, gen_region};

/// Budgets every case runs at: none, tiny, moderate and the default.
const BUDGETS: [u64; 4] = [0, 17, 1000, DEFAULT_EXACT_BUDGET];

/// Region lengths: the `k`-th region drawn from the seeded stream has
/// `LENS[k % 8]` instructions.
const LENS: [usize; 8] = [12, 16, 20, 24, 28, 32, 40, 48];

/// Which regions of the seeded stream are pinned. Most random regions
/// are proven optimal at the root (the balanced incumbent meets the
/// lower bound), so the pinned ones were picked for search depth: two
/// root proofs, seven searches of 70–520 nodes, seven of 1,400–25,000
/// (several of which run out at budget 1000) and four that exhaust
/// [`DEFAULT_EXACT_BUDGET`].
const CASES: [usize; 20] = [
    0, 2, 1, 14, 16, 68, 126, 265, 408, 50, 193, 229, 266, 338, 385, 659, 84, 253, 439, 474,
];

/// One row per case: the region length and, per budget in [`BUDGETS`],
/// the outcome digest, the nodes expanded and whether it was proven.
type Row = (usize, [(u64, u64, bool); 4]);

/// The trajectory recorded before the per-node rewrite of the search
/// (word-wise memo key, one scan per node, reused buffers).
#[rustfmt::skip]
const RECORDED: &[Row] = &[
    (12, [(0x4f9952958ddf966b, 0, false), (0xdb29c4410433ea79, 1, true), (0xdb29c4410433ea79, 1, true), (0xdb29c4410433ea79, 1, true)]),
    (20, [(0x895270548c31c7a3, 0, false), (0x14e2e20002861bb1, 1, true), (0x14e2e20002861bb1, 1, true), (0x14e2e20002861bb1, 1, true)]),
    (16, [(0x3b02e5cbb8b214a2, 0, false), (0x3486a5f91d5ca83e, 17, false), (0x7021a24d959f985b, 71, true), (0x7021a24d959f985b, 71, true)]),
    (40, [(0x4a586d6848889de4, 0, false), (0x58ffa502026c8a15, 17, false), (0xe71cfea88ab5e04d, 233, true), (0xe71cfea88ab5e04d, 233, true)]),
    (12, [(0x9f80196da6d9c3f1, 0, false), (0x3c5e99aabbe6c2e9, 17, false), (0x23944ed3f512fa76, 206, true), (0x23944ed3f512fa76, 206, true)]),
    (28, [(0x10314736aab57941, 0, false), (0xe0e2f0be4ebad130, 17, false), (0xbd8f83e5860fe31d, 266, true), (0xbd8f83e5860fe31d, 266, true)]),
    (40, [(0xc74715623be4bd44, 0, false), (0xd5ee4cfbf5c8a975, 17, false), (0x7d2d46803961ac32, 329, true), (0x7d2d46803961ac32, 329, true)]),
    (16, [(0x1051be64a7807a7c, 0, false), (0x3fa014dd037b228d, 17, false), (0x7e31398061c75834, 517, true), (0x7e31398061c75834, 517, true)]),
    (12, [(0x80e765ef06a2f651, 0, false), (0xdbcb30ced25079a9, 17, false), (0x20dbc29c39650129, 453, true), (0x20dbc29c39650129, 453, true)]),
    (20, [(0x1b44022468a79e30, 0, false), (0x4a92589cc4a24641, 17, false), (0xbfce12b28b2bbc69, 1000, false), (0x02386118528ab7f5, 3186, true)]),
    (16, [(0xc462aa92bba77bbc, 0, false), (0xf3b1010b17a223cd, 17, false), (0x79404a902f36f7e5, 1000, false), (0xe395dfa372a5545d, 6971, true)]),
    (32, [(0x0f11f336cc30c3c5, 0, false), (0xdfc39cbe70361bb4, 17, false), (0x13ad1e8703bdf0dc, 1000, false), (0x59eed2d944ee23f2, 24800, true)]),
    (20, [(0x6940c4b0e50548cd, 0, false), (0x39f26e38890aa0bc, 17, false), (0x7e2f7f706d9dd3d4, 1000, false), (0xd65035c399a41fe0, 9629, true)]),
    (20, [(0x7d4ca4faadab5cc9, 0, false), (0x4dfe4e8251b0b4b8, 17, false), (0xcaefed93454bda49, 1000, false), (0x0a8ff35cdd06651e, 13369, true)]),
    (16, [(0xfc708fcf53bc7bb5, 0, false), (0x93d8e7cc2b3acc8d, 17, false), (0xa13da3c0dbe06f25, 1000, false), (0xf4879667801b9170, 1400, true)]),
    (24, [(0xc99ebd044ae1de14, 0, false), (0xf8ed137ca6dc8625, 17, false), (0x321386ca39ee638d, 1000, false), (0x3f4950b6e711b725, 16212, true)]),
    (28, [(0x37238cb62c32f4e1, 0, false), (0x07d5363dd0384cd0, 17, false), (0x9e4032a67c835771, 1000, false), (0xd4679344386f3f29, 50000, false)]),
    (32, [(0xf8f54ec2d85a7052, 0, false), (0x2843a53b34551863, 17, false), (0x7dbf072f9e4a16d5, 1000, false), (0x72982a10160886cd, 50000, false)]),
    (48, [(0x942d4966299054dc, 0, false), (0xc37b9fde858afced, 17, false), (0x8a592720e14d48c5, 1000, false), (0x8a656bc6293959dd, 50000, false)]),
    (20, [(0x2a51f87ac380bad0, 0, false), (0x59a04ef31f7b62e1, 17, false), (0x15633dbb3ae82fc9, 1000, false), (0x774c55b1d9405251, 50000, false)]),
];

fn digest(order: &[usize], cost: u64, proven: bool, nodes: u64) -> u64 {
    let mut h = Fnv1a::new();
    for &i in order {
        h.write(&(i as u64).to_le_bytes());
    }
    h.write(&cost.to_le_bytes());
    h.write(&[u8::from(proven)]);
    h.write(&nodes.to_le_bytes());
    h.finish()
}

fn trajectory() -> Vec<Row> {
    let mut rng = Prng::new(0xEAC7_F1A5);
    let last = CASES.iter().copied().max().unwrap_or(0);
    let regions: Vec<_> = (0..=last)
        .map(|k| gen_region(&mut rng.fork(), LENS[k % LENS.len()]))
        .collect();
    CASES
        .iter()
        .map(|&case| {
            let insts = &regions[case];
            let len = insts.len();
            let (dag, weights, incumbent) = balanced_inputs(insts);
            let per_budget = BUDGETS.map(|budget| {
                let out = schedule_region_exact(&dag, &weights, budget, incumbent.clone());
                let d = digest(&out.order, out.cost, out.proven, out.nodes);
                (d, out.nodes, out.proven)
            });
            (len, per_budget)
        })
        .collect()
}

#[test]
fn search_trajectory_matches_the_recorded_table() {
    let got = trajectory();
    let table: String = got
        .iter()
        .map(|(len, b)| {
            let cells: Vec<String> = b
                .iter()
                .map(|(d, n, p)| format!("(0x{d:016x}, {n}, {p})"))
                .collect();
            format!("    ({len}, [{}]),\n", cells.join(", "))
        })
        .collect();
    assert_eq!(
        got.as_slice(),
        RECORDED,
        "exact search trajectory moved; the current table is:\n{table}"
    );
}

/// The table covers both outcomes at every nonzero budget that can run
/// out: some searches exhaust their budget and some prove optimality.
#[test]
fn the_recorded_table_covers_exhaustion_and_proof() {
    for (k, &budget) in BUDGETS.iter().enumerate().skip(1) {
        let proven = RECORDED.iter().filter(|(_, b)| b[k].2).count();
        assert!(proven > 0, "budget {budget}: no case proven");
        assert!(
            proven < RECORDED.len(),
            "budget {budget}: no case exhausted"
        );
    }
}
