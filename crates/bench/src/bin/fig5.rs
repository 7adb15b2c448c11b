//! Regenerates the paper's Figure 5: peeling the first iteration so the
//! temporal-reuse load `B[i][0]` misses once (in the peeled copy) and is
//! a compile-time hit inside the loop.

use bsched_ir::{Interp, LocalityHint};
use bsched_opt::{apply_locality, LocalityOptions};
use bsched_workloads::lang::ast::{Expr, Index};
use bsched_workloads::lang::{ArrayInit, Kernel};

fn main() {
    bsched_bench::cli::no_flags();
    const N: i64 = 12;
    let mut k = Kernel::new("fig5");
    let b_arr = k.array("B", N as u64, ArrayInit::Random(2));
    let out = k.array("out", 8, ArrayInit::Zero);
    let j = k.int_var("j");
    let s = k.float_var("s");
    k.push(k.assign(s, Expr::Float(0.0)));
    // s += B[0] every iteration: pure temporal reuse.
    let body = vec![k.assign(s, Expr::Var(s) + Expr::load(b_arr, Index::constant(0)))];
    k.push(k.for_loop(j, Expr::Int(0), Expr::Int(N), body));
    k.push(k.store(out, Index::constant(0), Expr::Var(s)));
    let mut p = k.lower();

    let before = Interp::new(&p).run().unwrap();
    let stats = apply_locality(p.main_mut(), &LocalityOptions::default());
    let after = Interp::new(&p).run().unwrap();
    assert_eq!(before.checksum, after.checksum);

    println!("Figure 5: loop peeling for temporal reuse\n");
    println!("{stats:?}\n");
    println!("{}", p.main());
    let mut peeled_miss = 0;
    let mut loop_hits = 0;
    for (_, blk) in p.main().iter_blocks() {
        for inst in &blk.insts {
            match inst.hint {
                LocalityHint::Miss => peeled_miss += 1,
                LocalityHint::Hit => loop_hits += 1,
                LocalityHint::Unknown => {}
            }
        }
    }
    println!("peeled copy carries the miss ({peeled_miss}), in-loop load is a hit ({loop_hits})");
}
