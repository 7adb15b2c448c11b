//! Property tests for the bitset DAG-analysis weight kernel: on seeded
//! random DAGs, [`compute_weights`] (the bitset fast path) must return
//! exactly the same weights as [`compute_weights_reference`] (the
//! retained per-contributor naive walk) for every scheduler kind and
//! several weight caps.
//!
//! The random regions mix loads (several memory regions and overlapping
//! displacements, so some load pairs serialise), stores, FP arithmetic
//! chains over previously defined values, and integer address
//! arithmetic — covering independence, comparability components of
//! varying size, and store-coverage cases.

use bsched_core::weights::{compute_weights, compute_weights_reference};
use bsched_core::{SchedulerKind, WeightConfig};
use bsched_ir::{Dag, Inst, Op, Reg, RegClass, RegionId};
use bsched_util::Prng;

fn r(n: u32) -> Reg {
    Reg::virt(RegClass::Int, n)
}
fn f(n: u32) -> Reg {
    Reg::virt(RegClass::Float, n)
}

/// Builds a random straight-line region of `len` instructions.
fn random_region(rng: &mut Prng, len: usize) -> Vec<Inst> {
    // A few int base registers defined up front (addresses), plus one
    // seeded float so arithmetic always has operands to draw from.
    let mut insts: Vec<Inst> = vec![
        Inst::li(r(0), 64),
        Inst::li(r(1), 4096),
        Inst::li(r(2), 1 << 20),
        Inst::fli(f(0), 1.5),
    ];
    let mut int_defs: Vec<u32> = vec![0, 1, 2];
    let mut float_defs: Vec<u32> = vec![0];
    let mut next_int = 3u32;
    let mut next_float = 1u32;

    while insts.len() < len {
        match rng.index(8) {
            // Loads are the majority so most regions have several
            // comparability components.
            0..=3 => {
                let base = int_defs[rng.index(int_defs.len())];
                // Displacements collide often enough that same-region,
                // same-base pairs sometimes overlap (serialised loads).
                let disp = rng.range_i64(0, 4) * 8;
                let mut ld = Inst::load(f(next_float), r(base), disp);
                // Region 0..2 known, occasionally unknown (aliases all).
                if rng.index(8) != 0 {
                    ld = ld.with_region(RegionId::new(rng.index(3)));
                }
                insts.push(ld);
                float_defs.push(next_float);
                next_float += 1;
            }
            4 => {
                let val = float_defs[rng.index(float_defs.len())];
                let base = int_defs[rng.index(int_defs.len())];
                let disp = rng.range_i64(0, 4) * 8;
                let mut st = Inst::store(f(val), r(base), disp);
                if rng.index(8) != 0 {
                    st = st.with_region(RegionId::new(rng.index(3)));
                }
                insts.push(st);
            }
            5 | 6 => {
                let a = float_defs[rng.index(float_defs.len())];
                let b = float_defs[rng.index(float_defs.len())];
                let op = if rng.coin() { Op::FAdd } else { Op::FMul };
                insts.push(Inst::op(op, f(next_float), &[f(a), f(b)]));
                float_defs.push(next_float);
                next_float += 1;
            }
            _ => {
                let a = int_defs[rng.index(int_defs.len())];
                insts.push(Inst::op_imm(
                    Op::Add,
                    r(next_int),
                    r(a),
                    rng.range_i64(8, 64),
                ));
                int_defs.push(next_int);
                next_int += 1;
            }
        }
    }
    insts
}

/// The property: the bitset kernel and the naive reference agree
/// exactly, for every scheduler kind and several caps.
fn assert_kernel_matches_reference(seed: u64, cases: usize, max_len: usize) {
    let mut rng = Prng::new(seed);
    for case in 0..cases {
        let len = 8 + rng.index(max_len - 8);
        let insts = random_region(&mut rng, len);
        let dag = Dag::new(&insts);
        for kind in SchedulerKind::ALL {
            for cap in [2u32, 10, 50] {
                let config = WeightConfig::new(kind).with_cap(cap);
                let fast = compute_weights(&insts, &dag, &config);
                let naive = compute_weights_reference(&insts, &dag, &config);
                assert_eq!(
                    fast,
                    naive,
                    "seed {seed:#x} case {case} ({len} insts): {} cap {cap} diverged",
                    kind.label()
                );
            }
        }
    }
}

#[test]
fn kernel_matches_reference_on_small_random_dags() {
    assert_kernel_matches_reference(0xB_5CED_0001, 24, 32);
}

#[test]
fn kernel_matches_reference_on_medium_random_dags() {
    assert_kernel_matches_reference(0xB_5CED_0002, 12, 96);
}

#[test]
fn kernel_matches_reference_on_unroll_sized_random_dags() {
    // Region sizes past the paper's unrolled-body budget, crossing the
    // 64-load word boundary so multi-word bitset rows are exercised.
    assert_kernel_matches_reference(0xB_5CED_0003, 6, 224);
}
