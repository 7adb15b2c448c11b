//! Regenerates the paper's Figure 1: the code DAG whose loads receive
//! balanced weights — independent loads L0, L1; serialised pair L2 → L3;
//! independent instructions X0…X3.

use bsched_core::{compute_weights, schedule_region, SchedulerKind, WeightConfig};
use bsched_ir::{Dag, Inst, Op, Reg, RegClass, RegionId};

fn main() {
    bsched_bench::cli::no_flags();
    let r = |n| Reg::virt(RegClass::Int, n);
    let f = |n| Reg::virt(RegClass::Float, n);
    let insts = vec![
        Inst::load(f(0), r(0), 0).with_region(RegionId::new(0)), // L0
        Inst::load(f(1), r(1), 0).with_region(RegionId::new(1)), // L1
        Inst::load(r(10), r(2), 0).with_region(RegionId::new(2)), // L2
        Inst::op_imm(Op::Add, r(11), r(10), 8),                  // X0 (addr for L3)
        Inst::load(f(3), r(11), 0).with_region(RegionId::new(3)), // L3
        Inst::op(Op::FAdd, f(4), &[f(6), f(7)]),                 // X1
        Inst::op(Op::FAdd, f(5), &[f(8), f(9)]),                 // X2
        Inst::op(Op::FMul, f(12), &[f(4), f(5)]),                // X3
    ];
    let names = ["L0", "L1", "L2", "X0", "L3", "X1", "X2", "X3"];
    let dag = Dag::new(&insts);

    println!("Figure 1: the paper's example DAG\n");
    for (i, inst) in insts.iter().enumerate() {
        let succs: Vec<&str> = dag
            .succs(i)
            .iter()
            .map(|&(t, _)| names[t as usize])
            .collect();
        println!("  {:3}  {:<28} -> {:?}", names[i], inst.to_string(), succs);
    }

    for kind in [SchedulerKind::Traditional, SchedulerKind::Balanced] {
        let cfg = WeightConfig::new(kind);
        let w = compute_weights(&insts, &dag, &cfg);
        println!("\n{} load weights:", kind.label());
        for (i, name) in names.iter().enumerate() {
            if insts[i].op.is_load() {
                println!("  {name}: {}", w[i]);
            }
        }
        let order = schedule_region(&insts, &dag, &w);
        let seq: Vec<&str> = order.iter().map(|&i| names[i]).collect();
        println!("  schedule: {}", seq.join(" "));
    }
    println!(
        "\nNote: X1/X2 fully cover the independent loads L0 and L1 but split\n\
         their coverage between the serialised pair L2 -> L3, exactly the\n\
         paper's \"L0 L1 X1 X2\" discussion."
    );
}
