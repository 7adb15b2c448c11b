//! Randomized property tests for the scheduler and the weight policies,
//! driven by the workspace's seeded [`Prng`] for reproducibility.

use bsched_core::{compute_weights, schedule_region, SchedulerKind, WeightConfig};
use bsched_ir::{opcode::latency, Dag, Inst, Op, Reg, RegClass, RegionId};
use bsched_util::Prng;

#[derive(Debug, Clone)]
enum GenInst {
    Alu {
        dst: u8,
        a: u8,
        imm: i8,
    },
    Fp {
        dst: u8,
        a: u8,
        b: u8,
    },
    Div {
        dst: u8,
        a: u8,
        b: u8,
    },
    Load {
        dst: u8,
        base: u8,
        disp: u8,
        region: u8,
    },
    Store {
        val: u8,
        base: u8,
        disp: u8,
        region: u8,
    },
}

fn gen_inst(rng: &mut Prng) -> GenInst {
    let b = |rng: &mut Prng| rng.next_u32() as u8;
    match rng.index(5) {
        0 => GenInst::Alu {
            dst: b(rng),
            a: b(rng),
            imm: b(rng) as i8,
        },
        1 => GenInst::Fp {
            dst: b(rng),
            a: b(rng),
            b: b(rng),
        },
        2 => GenInst::Div {
            dst: b(rng),
            a: b(rng),
            b: b(rng),
        },
        3 => GenInst::Load {
            dst: b(rng),
            base: b(rng),
            disp: b(rng),
            region: b(rng),
        },
        _ => GenInst::Store {
            val: b(rng),
            base: b(rng),
            disp: b(rng),
            region: b(rng),
        },
    }
}

fn gen_block(rng: &mut Prng, min: usize, max: usize) -> Vec<GenInst> {
    let n = min + rng.index(max - min);
    (0..n).map(|_| gen_inst(rng)).collect()
}

fn materialize(g: &[GenInst]) -> Vec<Inst> {
    let r = |n: u8| Reg::virt(RegClass::Int, u32::from(n) % 6);
    let f = |n: u8| Reg::virt(RegClass::Float, u32::from(n) % 6);
    g.iter()
        .map(|gi| match *gi {
            GenInst::Alu { dst, a, imm } => Inst::op_imm(Op::Add, r(dst), r(a), i64::from(imm)),
            GenInst::Fp { dst, a, b } => Inst::op(Op::FMul, f(dst), &[f(a), f(b)]),
            GenInst::Div { dst, a, b } => Inst::op(Op::FDivD, f(dst), &[f(a), f(b)]),
            GenInst::Load {
                dst,
                base,
                disp,
                region,
            } => Inst::load(f(dst), r(base), i64::from(disp % 8) * 8)
                .with_region(RegionId::new(usize::from(region % 2))),
            GenInst::Store {
                val,
                base,
                disp,
                region,
            } => Inst::store(f(val), r(base), i64::from(disp % 8) * 8)
                .with_region(RegionId::new(usize::from(region % 2))),
        })
        .collect()
}

#[test]
fn schedules_are_valid_topological_permutations() {
    let mut rng = Prng::new(0x5C4E_0001);
    for case in 0..96 {
        let g = gen_block(&mut rng, 1, 40);
        let kind = if rng.coin() {
            SchedulerKind::Traditional
        } else {
            SchedulerKind::Balanced
        };
        let insts = materialize(&g);
        let dag = Dag::new(&insts);
        let weights = compute_weights(&insts, &dag, &WeightConfig::new(kind));
        let order = schedule_region(&insts, &dag, &weights);

        // Permutation.
        assert_eq!(order.len(), insts.len(), "case {case}");
        let mut seen = vec![false; insts.len()];
        for &i in &order {
            assert!(!seen[i], "case {case}: index {i} scheduled twice");
            seen[i] = true;
        }
        // Topological.
        let mut pos = vec![0usize; insts.len()];
        for (k, &i) in order.iter().enumerate() {
            pos[i] = k;
        }
        for i in 0..insts.len() {
            for &(t, _) in dag.succs(i) {
                assert!(
                    pos[i] < pos[t as usize],
                    "case {case}: edge {i} -> {t} inverted"
                );
            }
        }
    }
}

#[test]
fn weight_invariants() {
    let mut rng = Prng::new(0x5C4E_0002);
    for case in 0..96 {
        let g = gen_block(&mut rng, 1, 40);
        let insts = materialize(&g);
        let dag = Dag::new(&insts);
        let trad = compute_weights(&insts, &dag, &WeightConfig::new(SchedulerKind::Traditional));
        let bal = compute_weights(&insts, &dag, &WeightConfig::new(SchedulerKind::Balanced));
        for (i, inst) in insts.iter().enumerate() {
            // Traditional weights are exactly the architectural latencies.
            assert_eq!(trad[i], inst.op.latency(), "case {case}: inst {i}");
            if inst.op.is_load() {
                // Balanced weights sit in [hit latency, cap].
                assert!(bal[i] >= latency::LOAD_HIT, "case {case}: inst {i}");
                assert!(bal[i] <= latency::MAX_LOAD, "case {case}: inst {i}");
                assert!(bal[i] >= trad[i], "case {case}: inst {i}");
            } else {
                assert_eq!(
                    bal[i], trad[i],
                    "case {case}: non-load {i} keeps fixed weight"
                );
            }
        }
    }
}

#[test]
fn scheduling_is_deterministic() {
    let mut rng = Prng::new(0x5C4E_0003);
    for case in 0..96 {
        let g = gen_block(&mut rng, 1, 32);
        let insts = materialize(&g);
        let dag = Dag::new(&insts);
        let w = compute_weights(&insts, &dag, &WeightConfig::default());
        let o1 = schedule_region(&insts, &dag, &w);
        let o2 = schedule_region(&insts, &dag, &w);
        assert_eq!(o1, o2, "case {case}");
    }
}

#[test]
fn adding_an_independent_instruction_never_lowers_load_weights() {
    let mut rng = Prng::new(0x5C4E_0004);
    for case in 0..96 {
        let g = gen_block(&mut rng, 1, 24);
        let mut insts = materialize(&g);
        let dag = Dag::new(&insts);
        let before = compute_weights(&insts, &dag, &WeightConfig::new(SchedulerKind::Balanced));
        // Append a fresh, totally independent FP op.
        insts.push(Inst::op(
            Op::FAdd,
            Reg::virt(RegClass::Float, 60),
            &[
                Reg::virt(RegClass::Float, 61),
                Reg::virt(RegClass::Float, 62),
            ],
        ));
        let dag2 = Dag::new(&insts);
        let after = compute_weights(&insts, &dag2, &WeightConfig::new(SchedulerKind::Balanced));
        for i in 0..before.len() {
            if insts[i].op.is_load() {
                assert!(
                    after[i] >= before[i],
                    "case {case}: more parallelism cannot shrink load weight at {i}"
                );
            }
        }
    }
}
