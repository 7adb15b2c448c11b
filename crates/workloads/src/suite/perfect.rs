//! Perfect Club kernels: ARC2D, BDNA, DYFESM, MDG, QCD2, TRFD.

use super::{idx2, idx2_off, KernelSpec, Suite};
use crate::lang::ast::{CmpOp, Expr, Index, Stmt};
use crate::lang::{ArrayInit, Kernel};

fn ld(arr: crate::lang::ast::ArrId, idx: Index) -> Expr {
    Expr::load(arr, idx)
}

/// ARC2D: two-dimensional fluid-flow stencil sweeps. Unrollable inner
/// loops full of independent array loads — the paper's biggest
/// balanced-scheduling winner among the Perfect codes.
fn arc2d_kernel() -> Kernel {
    const NI: i64 = 40;
    const NJ: i64 = 64;
    let mut k = Kernel::new("ARC2D");
    let p = k.array("P", (NI * NJ) as u64, ArrayInit::Random(0xa2c2d));
    let q = k.array("Q", (NI * NJ) as u64, ArrayInit::Random(0xa2c2e));
    let r = k.array("R", (NI * NJ) as u64, ArrayInit::Zero);
    let s = k.array("S", (NI * NJ) as u64, ArrayInit::Zero);
    let i = k.int_var("i");
    let j = k.int_var("j");

    // Sweep 1: two independent flux components per point (the real ARC2D
    // inner loops update several quantities per iteration — wide bodies).
    let sweep1 = vec![
        k.store(
            r,
            idx2(i, NJ, j),
            ld(p, idx2(i, NJ, j)) * Expr::Float(2.5)
                + ld(p, Index::two(i, NJ, j, 1, -NJ))
                + ld(p, Index::two(i, NJ, j, 1, NJ)),
        ),
        k.store(
            s,
            idx2(i, NJ, j),
            ld(q, idx2(i, NJ, j)) * Expr::Float(1.5)
                - ld(q, idx2_off(i, NJ, j, 1)) * Expr::Float(0.5),
        ),
    ];
    k.push(k.for_loop(
        i,
        Expr::Int(1),
        Expr::Int(NI - 1),
        vec![k.for_loop(j, Expr::Int(0), Expr::Int(NJ - 1), sweep1)],
    ));

    // Sweep 2: two independent relaxations.
    let sweep2 = vec![
        k.store(
            q,
            idx2(i, NJ, j),
            ld(q, idx2(i, NJ, j))
                + (ld(r, idx2(i, NJ, j)) - ld(r, Index::two(i, NJ, j, 1, -NJ))) * Expr::Float(0.2),
        ),
        k.store(
            p,
            idx2(i, NJ, j),
            ld(p, idx2(i, NJ, j)) + ld(s, idx2(i, NJ, j)) * Expr::Float(0.1),
        ),
    ];
    k.push(k.for_loop(
        i,
        Expr::Int(1),
        Expr::Int(NI - 1),
        vec![k.for_loop(j, Expr::Int(0), Expr::Int(NJ), sweep2)],
    ));
    k
}

/// BDNA: nucleic-acid simulation whose hot loops already have *very
/// large basic blocks*, so the unrolling size limit disables the
/// optimization (paper §5.1 footnote) while balanced scheduling still
/// finds plenty of load-level parallelism.
fn bdna_kernel() -> Kernel {
    const N: i64 = 1500;
    let mut k = Kernel::new("BDNA");
    let x = k.array("x", N as u64 + 4, ArrayInit::Random(0xbd0a));
    let y = k.array("y", N as u64 + 4, ArrayInit::Random(0xbd0b));
    let z = k.array("z", N as u64 + 4, ArrayInit::Random(0xbd0c));
    let f1 = k.array("f1", N as u64, ArrayInit::Zero);
    let f2 = k.array("f2", N as u64, ArrayInit::Zero);
    let i = k.int_var("i");

    // A wide straight-line body: many independent load/multiply trees.
    let mut body = Vec::new();
    let temps: Vec<_> = (0..10).map(|q| k.float_var(format!("t{q}"))).collect();
    for (q, &t) in temps.iter().enumerate() {
        let off = (q % 4) as i64;
        body.push(k.assign(
            t,
            ld(x, Index::of_plus(i, off)) * ld(y, Index::of_plus(i, (q % 3) as i64))
                + ld(z, Index::of_plus(i, ((q + 1) % 4) as i64)) * Expr::Float(0.25 + q as f64),
        ));
    }
    let sum_a = temps[..5]
        .iter()
        .map(|&t| Expr::Var(t))
        .reduce(|a, b| a + b)
        .expect("non-empty");
    let sum_b = temps[5..]
        .iter()
        .map(|&t| Expr::Var(t))
        .reduce(|a, b| a * Expr::Float(0.5) + b)
        .expect("non-empty");
    body.push(k.store(f1, Index::of(i), sum_a));
    body.push(k.store(f2, Index::of(i), sum_b));
    k.push(k.for_loop(i, Expr::Int(0), Expr::Int(N), body));
    k
}

/// DYFESM: structural dynamics with *few dominant control paths* — a
/// 50/50 data-dependent conditional whose arms contain stores (so neither
/// predication nor safe speculation applies). Trace scheduling picks one
/// arm and loses on the other, as in the paper (§5.2).
fn dyfesm_kernel() -> Kernel {
    const N: i64 = 1800;
    const M: i64 = 16;
    let mut k = Kernel::new("DYFESM");
    let mask = k.array("mask", N as u64, ArrayInit::Random(0xdf01));
    let a = k.array("a", N as u64, ArrayInit::Random(0xdf02));
    let b = k.array("b", N as u64, ArrayInit::Random(0xdf03));
    let u = k.array("u", N as u64, ArrayInit::Zero);
    let v = k.array("v", N as u64, ArrayInit::Zero);
    let w = k.array("w", N as u64, ArrayInit::Zero);
    let i = k.int_var("i");
    let body = vec![Stmt::If {
        cond: Expr::cmp(CmpOp::Lt, ld(mask, Index::of(i)), Expr::Float(0.5)),
        then_: vec![
            k.store(
                u,
                Index::of(i),
                ld(a, Index::of(i)) * Expr::Float(2.0) + ld(b, Index::of(i)),
            ),
            k.store(v, Index::of(i), ld(a, Index::of(i)) - ld(b, Index::of(i))),
        ],
        else_: vec![
            k.store(
                u,
                Index::of(i),
                ld(b, Index::of(i)) * Expr::Float(3.0) - ld(a, Index::of(i)),
            ),
            k.store(w, Index::of(i), ld(a, Index::of(i)) * ld(b, Index::of(i))),
        ],
    }];
    k.push(k.for_loop(i, Expr::Int(0), Expr::Int(N), body));

    // A small displacement solve (dense matrix-vector product).
    let km = k.array("K", (M * M) as u64, ArrayInit::Random(0xdf04));
    let d = k.array("d", M as u64, ArrayInit::Random(0xdf05));
    let out = k.array("out", M as u64, ArrayInit::Zero);
    let r = k.int_var("r");
    let c = k.int_var("c");
    let s = k.float_var("s");
    let inner = vec![k.assign(
        s,
        Expr::Var(s) + ld(km, idx2(r, M, c)) * ld(d, Index::of(c)),
    )];
    let outer = vec![
        k.assign(s, Expr::Float(0.0)),
        k.for_loop(c, Expr::Int(0), Expr::Int(M), inner),
        k.store(out, Index::of(r), Expr::Var(s)),
    ];
    k.push(k.for_loop(r, Expr::Int(0), Expr::Int(M), outer));
    k
}

/// MDG: molecular dynamics of water — distance computations with square
/// roots and divides (long fixed-latency chains) plus a predicable
/// cutoff, so non-load interlocks compete with load interlocks.
fn mdg_kernel() -> Kernel {
    const N: i64 = 2200;
    let mut k = Kernel::new("MDG");
    let x = k.array("x", N as u64, ArrayInit::Random(0x3d61));
    let y = k.array("y", N as u64, ArrayInit::Random(0x3d62));
    let z = k.array("z", N as u64, ArrayInit::Random(0x3d63));
    let f = k.array("f", N as u64, ArrayInit::Zero);
    let energy = k.array("energy", 8, ArrayInit::Zero);
    let i = k.int_var("i");
    let e = k.float_var("e");
    let dx = k.float_var("dx");
    let dy = k.float_var("dy");
    let dz = k.float_var("dz");
    let r2 = k.float_var("r2");
    let inv = k.float_var("inv");

    k.push(k.assign(e, Expr::Float(0.0)));
    let body = vec![
        k.assign(dx, ld(x, Index::of(i)) - Expr::Float(0.5)),
        k.assign(dy, ld(y, Index::of(i)) - Expr::Float(0.25)),
        k.assign(dz, ld(z, Index::of(i)) - Expr::Float(0.75)),
        k.assign(
            r2,
            Expr::Var(dx) * Expr::Var(dx)
                + Expr::Var(dy) * Expr::Var(dy)
                + Expr::Var(dz) * Expr::Var(dz),
        ),
        k.assign(
            inv,
            Expr::div(
                Expr::Float(1.0),
                Expr::sqrt(Expr::Var(r2)) + Expr::Float(0.01),
            ),
        ),
        // Cutoff: contributions beyond the shell are zeroed (predicable
        // at the source level — a select, like Multiflow's cmov).
        k.assign(
            inv,
            Expr::select(
                Expr::cmp(CmpOp::Lt, Expr::Var(r2), Expr::Float(0.9)),
                Expr::Var(inv),
                Expr::Float(0.0),
            ),
        ),
        k.assign(e, Expr::Var(e) + Expr::Var(inv)),
        k.store(f, Index::of(i), Expr::Var(inv) * Expr::Var(dx)),
    ];
    k.push(k.for_loop(i, Expr::Int(0), Expr::Int(N), body));
    k.push(k.store(energy, Index::constant(0), Expr::Var(e)));
    k
}

/// QCD2: lattice-gauge simulation — *many short loops with small basic
/// blocks*, so branch overhead is high and little load-level parallelism
/// exists per block (balanced scheduling gains little, §5.1).
fn qcd2_kernel() -> Kernel {
    const S: i64 = 32;
    const EPOCHS: i64 = 50;
    let mut k = Kernel::new("QCD2");
    let ur = k.array("ur", S as u64, ArrayInit::Random(0x9cd1));
    let ui = k.array("ui", S as u64, ArrayInit::Random(0x9cd2));
    let vr = k.array("vr", S as u64, ArrayInit::Random(0x9cd3));
    let vi = k.array("vi", S as u64, ArrayInit::Random(0x9cd4));
    let acc = k.array("acc", 8, ArrayInit::Zero);
    let t = k.int_var("t");
    let s = k.int_var("s");
    let a = k.float_var("a");

    // Complex multiply, one tiny loop per component (small blocks).
    let l1 = vec![k.store(
        ur,
        Index::of(s),
        ld(ur, Index::of(s)) * ld(vr, Index::of(s)) - ld(ui, Index::of(s)) * ld(vi, Index::of(s)),
    )];
    let l2 = vec![k.store(
        ui,
        Index::of(s),
        ld(ur, Index::of(s)) * ld(vi, Index::of(s)) + ld(ui, Index::of(s)) * ld(vr, Index::of(s)),
    )];
    let l3 = vec![k.assign(a, Expr::Var(a) + ld(ur, Index::of(s)) * Expr::Float(1e-3))];
    let epoch = vec![
        k.for_loop(s, Expr::Int(0), Expr::Int(S), l1),
        k.for_loop(s, Expr::Int(0), Expr::Int(S), l2),
        k.for_loop(s, Expr::Int(0), Expr::Int(S), l3),
    ];
    k.push(k.assign(a, Expr::Float(0.0)));
    k.push(k.for_loop(t, Expr::Int(0), Expr::Int(EPOCHS), epoch));
    k.push(k.store(acc, Index::constant(0), Expr::Var(a)));
    k
}

/// TRFD: two-electron integral transformation — dense inner products
/// with several simultaneously live accumulators, so unrolling by 8
/// raises register pressure into spill territory (paper §5.1: "the
/// increase in spill instructions offset the reduction in branch
/// overhead").
fn trfd_kernel() -> Kernel {
    const M: i64 = 48;
    let mut k = Kernel::new("TRFD");
    let xm = k.array("X", (M * M) as u64, ArrayInit::Random(0x7f41));
    let v1 = k.array("v1", M as u64, ArrayInit::Random(0x7f42));
    let v2 = k.array("v2", M as u64, ArrayInit::Random(0x7f43));
    let o1 = k.array("o1", M as u64, ArrayInit::Zero);
    let o2 = k.array("o2", M as u64, ArrayInit::Zero);
    let i = k.int_var("i");
    let j = k.int_var("j");
    let a1 = k.float_var("a1");
    let a2 = k.float_var("a2");
    let a3 = k.float_var("a3");
    let a4 = k.float_var("a4");

    let inner = vec![
        k.assign(
            a1,
            Expr::Var(a1) + ld(xm, idx2(i, M, j)) * ld(v1, Index::of(j)),
        ),
        k.assign(
            a2,
            Expr::Var(a2) + ld(xm, idx2(i, M, j)) * ld(v2, Index::of(j)),
        ),
        k.assign(
            a3,
            Expr::Var(a3) + ld(xm, idx2(i, M, j)) * ld(v1, Index::of(j)) * Expr::Float(0.5),
        ),
        k.assign(
            a4,
            Expr::Var(a4) + ld(xm, idx2(i, M, j)) * ld(v2, Index::of(j)) * Expr::Float(0.25),
        ),
    ];
    let outer = vec![
        k.assign(a1, Expr::Float(0.0)),
        k.assign(a2, Expr::Float(0.0)),
        k.assign(a3, Expr::Float(0.0)),
        k.assign(a4, Expr::Float(0.0)),
        k.for_loop(j, Expr::Int(0), Expr::Int(M), inner),
        k.store(o1, Index::of(i), Expr::Var(a1) + Expr::Var(a3)),
        k.store(o2, Index::of(i), Expr::Var(a2) - Expr::Var(a4)),
    ];
    k.push(k.for_loop(i, Expr::Int(0), Expr::Int(M), outer));
    k
}

/// The Perfect Club kernels, in Table 1 order.
pub(super) fn kernels() -> Vec<KernelSpec> {
    vec![
        KernelSpec {
            name: "ARC2D",
            suite: Suite::PerfectClub,
            lang: "Fortran",
            description: "Two-dimensional fluid flow problem solver using Euler equations",
            shape: "unrollable 2-D stencil sweeps with abundant independent loads",
            kernel: arc2d_kernel,
        },
        KernelSpec {
            name: "BDNA",
            suite: Suite::PerfectClub,
            lang: "Fortran",
            description: "Simulation of hydration structure and dynamics of nucleic acids",
            shape: "very large basic blocks; unrolling disabled by the size limit",
            kernel: bdna_kernel,
        },
        KernelSpec {
            name: "DYFESM",
            suite: Suite::PerfectClub,
            lang: "Fortran",
            description: "Structural dynamics benchmark to solve displacements and stresses",
            shape: "50/50 data-dependent branch with stores in both arms (few dominant paths)",
            kernel: dyfesm_kernel,
        },
        KernelSpec {
            name: "MDG",
            suite: Suite::PerfectClub,
            lang: "Fortran",
            description: "Molecular dynamic simulation of flexible water molecules",
            shape: "sqrt/divide chains plus a predicable cutoff",
            kernel: mdg_kernel,
        },
        KernelSpec {
            name: "QCD2",
            suite: Suite::PerfectClub,
            lang: "Fortran",
            description: "Lattice-gauge QCD simulation",
            shape: "many short loops with small basic blocks",
            kernel: qcd2_kernel,
        },
        KernelSpec {
            name: "TRFD",
            suite: Suite::PerfectClub,
            lang: "Fortran",
            description: "Two-electron integral transformation",
            shape: "multi-accumulator inner products; unroll-by-8 spills",
            kernel: trfd_kernel,
        },
    ]
}
