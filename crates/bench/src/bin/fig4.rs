//! Regenerates the paper's Figure 4: the postconditioned unroll-by-4 of
//! the Figure 3 loop, with the first copy of each cache-line group marked
//! as the compile-time miss and the rest as hits.

use bsched_ir::{Interp, LocalityHint};
use bsched_opt::{apply_locality, LocalityOptions};
use bsched_workloads::lang::ast::{Expr, Index};
use bsched_workloads::lang::{ArrayInit, Kernel};

fn main() {
    bsched_bench::cli::no_flags();
    const N: i64 = 8;
    let mut k = Kernel::new("fig4");
    let a = k.array("A", (N * N) as u64, ArrayInit::Random(1));
    let c = k.array("C", (N * N) as u64, ArrayInit::Zero);
    let i = k.int_var("i");
    let j = k.int_var("j");
    let inner = vec![k.store(
        c,
        Index::two(i, N, j, 1, 0),
        Expr::load(a, Index::two(i, N, j, 1, 0)) * Expr::Float(2.0),
    )];
    let outer = vec![k.for_loop(j, Expr::Int(0), Expr::Int(N), inner)];
    k.push(k.for_loop(i, Expr::Int(0), Expr::Int(N), outer));
    let mut p = k.lower();

    let before = Interp::new(&p).run().unwrap();
    let stats = apply_locality(p.main_mut(), &LocalityOptions::default());
    let after = Interp::new(&p).run().unwrap();
    assert_eq!(before.checksum, after.checksum);

    println!("Figure 4: postconditioned unroll-by-4 with hit/miss marking\n");
    println!("{stats:?}\n");
    println!("{}", p.main());
    let body = p.main().loops[stats.loops_processed[0]].body[0];
    let (hits, misses): (usize, usize) =
        p.main()
            .block(body)
            .insts
            .iter()
            .fold((0, 0), |acc, x| match x.hint {
                LocalityHint::Hit => (acc.0 + 1, acc.1),
                LocalityHint::Miss => (acc.0, acc.1 + 1),
                LocalityHint::Unknown => acc,
            });
    println!("main unrolled body: {misses} miss-marked load(s), {hits} hit-marked load(s)");
    println!("(the remainder runs through the guarded postcondition chain, as in the paper)");
}
