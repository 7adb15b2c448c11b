//! The random-region generator and balanced-input setup shared by the
//! exact scheduler's integration tests (`exact_props`, `exact_pins`).

use bsched_core::{compute_weights, schedule_region, SchedulerKind, WeightConfig};
use bsched_ir::{Dag, Inst, Op, Reg, RegClass, RegionId};
use bsched_util::Prng;

fn r(n: u32) -> Reg {
    Reg::virt(RegClass::Int, n)
}
fn f(n: u32) -> Reg {
    Reg::virt(RegClass::Float, n)
}

/// A random region of `len` instructions: loads (with a small pool of
/// memory regions so some pairs alias and grow memory edges), FP
/// arithmetic over previously defined or live-in registers, integer ALU
/// ops, and the odd store. Register reuse is deliberate — it creates
/// data, anti, and output dependences in one stroke.
pub fn gen_region(rng: &mut Prng, len: usize) -> Vec<Inst> {
    let mut insts = Vec::with_capacity(len);
    let mut next_f = 8u32; // f0..f7 and r0..r3 are live-in
    let mut next_r = 4u32;
    for _ in 0..len {
        match rng.index(6) {
            0 | 1 => {
                // A load from one of three memory regions; sharing a
                // region makes later stores conflict with it.
                let dst = f(next_f);
                next_f += 1;
                let region = RegionId::new(rng.index(3));
                insts.push(
                    Inst::load(dst, r(rng.index(4) as u32), rng.range_i64(0, 4) * 8)
                        .with_region(region),
                );
            }
            2 | 3 => {
                // FP op over two random earlier (or live-in) floats.
                let a = f(rng.index(next_f as usize) as u32);
                let b = f(rng.index(next_f as usize) as u32);
                let dst = if rng.coin() {
                    // Occasionally redefine an existing register to
                    // manufacture anti/output dependences.
                    f(rng.index(next_f as usize) as u32)
                } else {
                    let d = f(next_f);
                    next_f += 1;
                    d
                };
                let op = [Op::FAdd, Op::FSub, Op::FMul][rng.index(3)];
                insts.push(Inst::op(op, dst, &[a, b]));
            }
            4 => {
                let a = r(rng.index(next_r as usize) as u32);
                let dst = r(next_r);
                next_r += 1;
                insts.push(Inst::op_imm(Op::Add, dst, a, rng.range_i64(1, 8)));
            }
            _ => {
                let val = f(rng.index(next_f as usize) as u32);
                let region = RegionId::new(rng.index(3));
                insts.push(
                    Inst::store(val, r(rng.index(4) as u32), rng.range_i64(0, 4) * 8)
                        .with_region(region),
                );
            }
        }
    }
    insts
}

/// Balanced weights, the balanced heuristic order, and the DAG for a
/// region — the exact arm's actual inputs in the pipeline.
pub fn balanced_inputs(insts: &[Inst]) -> (Dag, Vec<u32>, Vec<usize>) {
    let dag = Dag::new(insts);
    let weights = compute_weights(insts, &dag, &WeightConfig::new(SchedulerKind::Balanced));
    let order = schedule_region(insts, &dag, &weights);
    (dag, weights, order)
}
