//! Regenerates the paper's Figure 3: the doubly nested loop
//! `C[i][j] = A[i][j] + B[i][0]` whose inner loop exhibits *spatial*
//! reuse on A and C and *temporal* reuse on B, as found by locality
//! analysis.

use bsched_opt::analyze_locality;
use bsched_workloads::lang::ast::{Expr, Index};
use bsched_workloads::lang::{ArrayInit, Kernel};

fn main() {
    bsched_bench::cli::no_flags();
    const N: i64 = 8;
    let mut k = Kernel::new("fig3");
    let a = k.array("A", (N * N) as u64, ArrayInit::Random(1));
    let b = k.array("B", (N * N) as u64, ArrayInit::Random(2));
    let c = k.array("C", (N * N) as u64, ArrayInit::Zero);
    let i = k.int_var("i");
    let j = k.int_var("j");
    let inner = vec![k.store(
        c,
        Index::two(i, N, j, 1, 0),
        Expr::load(a, Index::two(i, N, j, 1, 0)) + Expr::load(b, Index::two(i, N, i, 0, 0)),
    )];
    let outer = vec![k.for_loop(j, Expr::Int(0), Expr::Int(N), inner)];
    k.push(k.for_loop(i, Expr::Int(0), Expr::Int(N), outer));
    let p = k.lower();

    println!("Figure 3 source:\n");
    println!("  for (i = 0; i < {N}; i++)");
    println!("    for (j = 0; j < {N}; j++)");
    println!("      C[i][j] = A[i][j] + B[i][0];\n");
    println!("Locality analysis over the inner loop:\n");
    for r in analyze_locality(p.main()) {
        println!(
            "  loop {} inst {}: {:?}, alignment provable: {}",
            r.loop_idx, r.inst_idx, r.kind, r.aligned
        );
    }
    println!(
        "\nA[i][j] advances 8 bytes per iteration inside a 32-byte line\n\
         (spatial); B[i][0] is invariant in j (temporal) — Figure 3's\n\
         classification."
    );
}
