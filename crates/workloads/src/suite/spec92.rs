//! SPEC92 kernels: alvinn, dnasa7, doduc, ear, hydro2d, mdljdp2, ora,
//! spice2g6, su2cor, swm256, tomcatv.

use super::{idx2, KernelSpec, Suite};
use crate::lang::ast::{CmpOp, Expr, Index, Stmt};
use crate::lang::{ArrayInit, Kernel};

fn ld(arr: crate::lang::ast::ArrId, idx: Index) -> Expr {
    Expr::load(arr, idx)
}

/// alvinn: neural-network back-propagation — dot products whose serial
/// accumulator chains are fixed-latency bound; unrolling removes lots of
/// overhead but balanced scheduling gains little (paper: TS occasionally
/// wins here, §5.1).
fn alvinn_kernel() -> Kernel {
    const IN: i64 = 256;
    const HID: i64 = 24;
    let mut k = Kernel::new("alvinn");
    let w = k.array("w", (HID * IN) as u64, ArrayInit::Random(0xa111));
    let x = k.array("x", IN as u64, ArrayInit::Random(0xa112));
    let hid = k.array("hid", HID as u64, ArrayInit::Zero);
    let err = k.array("err", HID as u64, ArrayInit::Random(0xa113));
    let h = k.int_var("h");
    let i = k.int_var("i");
    let s = k.float_var("s");

    // Forward pass: hid[h] = Σ w[h][i]·x[i].
    let dot = vec![k.assign(
        s,
        Expr::Var(s) + ld(w, idx2(h, IN, i)) * ld(x, Index::of(i)),
    )];
    let fwd = vec![
        k.assign(s, Expr::Float(0.0)),
        k.for_loop(i, Expr::Int(0), Expr::Int(IN), dot),
        k.store(hid, Index::of(h), Expr::Var(s) * Expr::Float(0.1)),
    ];
    k.push(k.for_loop(h, Expr::Int(0), Expr::Int(HID), fwd));

    // Weight update: w[h][i] += lr·err[h]·x[i].
    let upd = vec![k.store(
        w,
        idx2(h, IN, i),
        ld(w, idx2(h, IN, i)) + ld(err, Index::of(h)) * ld(x, Index::of(i)) * Expr::Float(0.01),
    )];
    let bwd = vec![k.for_loop(i, Expr::Int(0), Expr::Int(IN), upd)];
    k.push(k.for_loop(h, Expr::Int(0), Expr::Int(HID), bwd));
    k
}

/// dnasa7: NASA matrix-manipulation kernels — matrix multiply plus wide
/// element-wise sweeps with many independent streams: the paper's biggest
/// balanced-scheduling win (speedups near 1.8 over TS).
fn dnasa7_kernel() -> Kernel {
    const N: i64 = 16;
    const NI: i64 = 48;
    const NJ: i64 = 64;
    let mut k = Kernel::new("dnasa7");
    // MXM.
    let a = k.array("A", (N * N) as u64, ArrayInit::Random(0xd471));
    let b = k.array("B", (N * N) as u64, ArrayInit::Random(0xd472));
    let c = k.array("C", (N * N) as u64, ArrayInit::Zero);
    let i = k.int_var("i");
    let j = k.int_var("j");
    let kk = k.int_var("kk");
    let s = k.float_var("s");
    let dot = vec![k.assign(
        s,
        Expr::Var(s) + ld(a, idx2(i, N, kk)) * ld(b, idx2(kk, N, j)),
    )];
    let col = vec![
        k.assign(s, Expr::Float(0.0)),
        k.for_loop(kk, Expr::Int(0), Expr::Int(N), dot),
        k.store(c, idx2(i, N, j), Expr::Var(s)),
    ];
    let row = vec![k.for_loop(j, Expr::Int(0), Expr::Int(N), col)];
    k.push(k.for_loop(i, Expr::Int(0), Expr::Int(N), row));

    // Wide element-wise sweep over four independent streams.
    let e1 = k.array("E1", (NI * NJ) as u64, ArrayInit::Random(0xd473));
    let e2 = k.array("E2", (NI * NJ) as u64, ArrayInit::Random(0xd474));
    let e3 = k.array("E3", (NI * NJ) as u64, ArrayInit::Random(0xd475));
    let e4 = k.array("E4", (NI * NJ) as u64, ArrayInit::Zero);
    let sweep = vec![k.store(
        e4,
        idx2(i, NJ, j),
        ld(e1, idx2(i, NJ, j)) * Expr::Float(1.1)
            + ld(e2, idx2(i, NJ, j)) * Expr::Float(0.9)
            + ld(e3, idx2(i, NJ, j)) * ld(e1, idx2(i, NJ, j)),
    )];
    let sweep_rows = vec![k.for_loop(j, Expr::Int(0), Expr::Int(NJ), sweep)];
    k.push(k.for_loop(i, Expr::Int(0), Expr::Int(NI), sweep_rows));
    k
}

/// doduc: Monte Carlo reactor simulation — hot loops with *multiple
/// internal conditionals* whose arms store (not predicable, so never
/// unrolled) and plenty of divides.
fn doduc_kernel() -> Kernel {
    const N: i64 = 1100;
    let mut k = Kernel::new("doduc");
    let a = k.array("a", N as u64, ArrayInit::Random(0xd0d1));
    let b = k.array("b", N as u64, ArrayInit::Random(0xd0d2));
    let u = k.array("u", N as u64, ArrayInit::Zero);
    let v = k.array("v", N as u64, ArrayInit::Zero);
    let i = k.int_var("i");
    let body = vec![
        Stmt::If {
            cond: Expr::cmp(CmpOp::Lt, ld(a, Index::of(i)), Expr::Float(0.3)),
            then_: vec![k.store(
                u,
                Index::of(i),
                Expr::div(ld(a, Index::of(i)), ld(b, Index::of(i)) + Expr::Float(0.5)),
            )],
            else_: vec![k.store(u, Index::of(i), ld(a, Index::of(i)) * ld(b, Index::of(i)))],
        },
        Stmt::If {
            cond: Expr::cmp(CmpOp::Lt, ld(b, Index::of(i)), Expr::Float(0.6)),
            then_: vec![k.store(
                v,
                Index::of(i),
                Expr::div(ld(b, Index::of(i)), ld(a, Index::of(i)) + Expr::Float(1.0)),
            )],
            else_: vec![k.store(v, Index::of(i), ld(b, Index::of(i)) * Expr::Float(0.5))],
        },
    ];
    k.push(k.for_loop(i, Expr::Int(0), Expr::Int(N), body));
    k
}

/// ear: cochlea simulation — cascaded IIR filters: a serial
/// floating-point recurrence with almost no load-level parallelism, so
/// traditional scheduling's preference for fixed-latency operations can
/// win (paper: 0.93–0.95).
fn ear_kernel() -> Kernel {
    const N: i64 = 4000;
    let mut k = Kernel::new("ear");
    let x = k.array("x", N as u64, ArrayInit::Random(0xea71));
    let out = k.array("out", N as u64, ArrayInit::Zero);
    let i = k.int_var("i");
    let y1 = k.float_var("y1");
    let y2 = k.float_var("y2");
    let y3 = k.float_var("y3");
    k.push(k.assign(y1, Expr::Float(0.0)));
    k.push(k.assign(y2, Expr::Float(0.0)));
    k.push(k.assign(y3, Expr::Float(0.0)));
    let body = vec![
        k.assign(
            y1,
            Expr::Var(y1) * Expr::Float(0.7) + ld(x, Index::of(i)) * Expr::Float(0.3),
        ),
        k.assign(
            y2,
            Expr::Var(y2) * Expr::Float(0.6) + Expr::Var(y1) * Expr::Float(0.4),
        ),
        k.assign(
            y3,
            Expr::Var(y3) * Expr::Float(0.5) + Expr::Var(y2) * Expr::Float(0.5),
        ),
        k.store(out, Index::of(i), Expr::Var(y3)),
    ];
    k.push(k.for_loop(i, Expr::Int(0), Expr::Int(N), body));
    k
}

/// hydro2d: Navier–Stokes sweeps over arrays larger than the L2 cache —
/// long-latency loads with plenty of independent work to hide them.
fn hydro2d_kernel() -> Kernel {
    const NI: i64 = 48;
    const NJ: i64 = 96;
    let mut k = Kernel::new("hydro2d");
    let ro = k.array("ro", (NI * NJ) as u64, ArrayInit::Random(0x42d1));
    let px = k.array("px", (NI * NJ) as u64, ArrayInit::Random(0x42d2));
    let py = k.array("py", (NI * NJ) as u64, ArrayInit::Random(0x42d3));
    let fx = k.array("fx", (NI * NJ) as u64, ArrayInit::Zero);
    let i = k.int_var("i");
    let j = k.int_var("j");

    let flux = vec![k.store(
        fx,
        idx2(i, NJ, j),
        ld(px, idx2(i, NJ, j)) * ld(ro, idx2(i, NJ, j))
            + ld(py, idx2(i, NJ, j)) * Expr::Float(0.5)
            + ld(px, Index::two(i, NJ, j, 1, NJ)) * Expr::Float(0.25)
            - ld(px, Index::two(i, NJ, j, 1, -NJ)) * Expr::Float(0.25),
    )];
    let rows = vec![k.for_loop(j, Expr::Int(0), Expr::Int(NJ), flux)];
    k.push(k.for_loop(i, Expr::Int(1), Expr::Int(NI - 1), rows));

    let relax = vec![k.store(
        ro,
        idx2(i, NJ, j),
        ld(ro, idx2(i, NJ, j)) + ld(fx, idx2(i, NJ, j)) * Expr::Float(0.1),
    )];
    let rows2 = vec![k.for_loop(j, Expr::Int(0), Expr::Int(NJ), relax)];
    k.push(k.for_loop(i, Expr::Int(1), Expr::Int(NI - 1), rows2));
    k
}

/// mdljdp2: molecular dynamics with cutoff tests — more than one internal
/// conditional with stores, so the loop is never unrolled (paper §5.1:
/// dynamic count changes by only 0.4%).
fn mdljdp2_kernel() -> Kernel {
    const N: i64 = 2400;
    let mut k = Kernel::new("mdljdp2");
    let x = k.array("x", N as u64, ArrayInit::Random(0x3d11));
    let y = k.array("y", N as u64, ArrayInit::Random(0x3d12));
    let f = k.array("f", N as u64, ArrayInit::Zero);
    let cnt = k.array("cnt", N as u64, ArrayInit::Zero);
    let i = k.int_var("i");
    let r2 = k.float_var("r2");
    let body = vec![
        k.assign(
            r2,
            ld(x, Index::of(i)) * ld(x, Index::of(i)) + ld(y, Index::of(i)) * ld(y, Index::of(i)),
        ),
        Stmt::If {
            cond: Expr::cmp(CmpOp::Lt, Expr::Var(r2), Expr::Float(0.8)),
            then_: vec![k.store(
                f,
                Index::of(i),
                Expr::div(Expr::Float(1.0), Expr::Var(r2) + Expr::Float(0.1)),
            )],
            else_: vec![k.store(f, Index::of(i), Expr::Float(0.0))],
        },
        Stmt::If {
            cond: Expr::cmp(CmpOp::Lt, Expr::Var(r2), Expr::Float(0.2)),
            then_: vec![k.store(cnt, Index::of(i), ld(cnt, Index::of(i)) + Expr::Float(1.0))],
            else_: vec![],
        },
    ];
    k.push(k.for_loop(i, Expr::Int(0), Expr::Int(N), body));
    k
}

/// ora: ray tracing through an optical system — "most of the execution
/// time is spent in a large, loop-free subroutine": one giant
/// straight-line body over scalars with sqrt/divide chains, data living
/// in registers, and essentially no load interlocks.
fn ora_kernel() -> Kernel {
    const RAYS: i64 = 350;
    let mut k = Kernel::new("ora");
    let params = k.array("params", 16, ArrayInit::Random(0x06a1));
    let out = k.array("out", RAYS as u64, ArrayInit::Zero);
    let i = k.int_var("i");
    let dir = k.float_var("dir");
    let pos = k.float_var("pos");
    let tmp = k.float_var("tmp");
    let acc = k.float_var("acc");

    let mut body = Vec::new();
    body.push(k.assign(
        pos,
        Expr::IntToFloat(Box::new(Expr::Var(i))) * Expr::Float(1e-3),
    ));
    body.push(k.assign(dir, ld(params, Index::constant(0)) + Expr::Var(pos)));
    body.push(k.assign(acc, Expr::Float(0.0)));
    // Eight surfaces, each a refraction step: a long scalar chain.
    for srf in 0..8 {
        let curv = 0.1 + 0.05 * srf as f64;
        body.push(k.assign(
            tmp,
            Expr::sqrt(
                Expr::Var(dir) * Expr::Var(dir)
                    + Expr::Var(pos) * Expr::Var(pos)
                    + Expr::Float(curv),
            ),
        ));
        body.push(k.assign(
            dir,
            Expr::div(
                Expr::Var(dir) + Expr::Float(curv),
                Expr::Var(tmp) + Expr::Float(1.0),
            ),
        ));
        body.push(k.assign(pos, Expr::Var(pos) + Expr::Var(dir) * Expr::Float(0.5)));
        body.push(k.assign(acc, Expr::Var(acc) + Expr::Var(tmp)));
    }
    body.push(k.store(out, Index::of(i), Expr::Var(acc)));
    k.push(k.for_loop(i, Expr::Int(0), Expr::Int(RAYS), body));
    k
}

/// spice2g6: circuit simulation — irregular, *dynamically indexed* loads
/// chained through a table far larger than the L1: the serial pointer
/// chase produces load interlocks no scheduler can hide (paper: ~30% of
/// cycles remain load interlocks under every configuration).
fn spice2g6_kernel() -> Kernel {
    const TABLE: i64 = 12 * 1024; // 96 KB
    const STEPS: i64 = 5000;
    let mut k = Kernel::new("spice2g6");
    // Pseudo-random successor table (deterministic host-side generation).
    let next: Vec<f64> = (0..TABLE)
        .map(|q| ((q * 7919 + 131) % TABLE) as f64)
        .collect();
    let tbl = k.array("next", TABLE as u64, ArrayInit::Values(next));
    let vals = k.array("vals", TABLE as u64, ArrayInit::Random(0x59ce));
    let out = k.array("out", 8, ArrayInit::Zero);
    let t = k.int_var("t");
    let cur = k.int_var("cur");
    let acc = k.float_var("acc");
    let v = k.float_var("v");
    k.push(k.assign(cur, Expr::Int(0)));
    k.push(k.assign(acc, Expr::Float(0.0)));
    let body = vec![
        // v = next[cur]; cur = int(v) — a pure pointer chase: every load's
        // address depends on the previous load's value, so no schedule can
        // overlap the misses (the paper's spice2g6 keeps ~30% of its
        // cycles in load interlocks under every configuration).
        k.assign(v, ld(tbl, Index::Dyn(Box::new(Expr::Var(cur))))),
        k.assign(cur, Expr::FloatToInt(Box::new(Expr::Var(v)))),
        // Device-model arithmetic on the fetched value.
        k.assign(
            acc,
            Expr::Var(acc)
                + Expr::select(
                    Expr::cmp(CmpOp::Lt, Expr::Var(v), Expr::Float(6000.0)),
                    Expr::Var(v) * Expr::Float(1e-6),
                    Expr::Var(v) * Expr::Float(2e-6),
                ),
        ),
    ];
    k.push(k.for_loop(t, Expr::Int(0), Expr::Int(STEPS), body));
    k.push(k.store(out, Index::constant(0), Expr::Var(acc)));
    let _ = vals;
    k
}

/// su2cor: quark–gluon mass computation — component-separated (SoA) 3×3
/// matrix-vector products over lattice sites: clean unit-stride unrollable
/// loops (paper: consistent balanced-scheduling wins, 1.18–1.26).
fn su2cor_kernel() -> Kernel {
    const SITES: i64 = 1500;
    let mut k = Kernel::new("su2cor");
    let v0 = k.array("v0", SITES as u64, ArrayInit::Random(0x5211));
    let v1 = k.array("v1", SITES as u64, ArrayInit::Random(0x5212));
    let v2 = k.array("v2", SITES as u64, ArrayInit::Random(0x5213));
    let o0 = k.array("o0", SITES as u64, ArrayInit::Zero);
    let o1 = k.array("o1", SITES as u64, ArrayInit::Zero);
    let o2 = k.array("o2", SITES as u64, ArrayInit::Zero);
    let s = k.int_var("s");
    let m = [[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.1, 0.2, 0.7]];
    let row = |k: &Kernel, out, r: usize| {
        k.store(
            out,
            Index::of(s),
            ld(v0, Index::of(s)) * Expr::Float(m[r][0])
                + ld(v1, Index::of(s)) * Expr::Float(m[r][1])
                + ld(v2, Index::of(s)) * Expr::Float(m[r][2]),
        )
    };
    let l0 = vec![row(&k, o0, 0)];
    let l1 = vec![row(&k, o1, 1)];
    let l2 = vec![row(&k, o2, 2)];
    k.push(k.for_loop(s, Expr::Int(0), Expr::Int(SITES), l0));
    k.push(k.for_loop(s, Expr::Int(0), Expr::Int(SITES), l1));
    k.push(k.for_loop(s, Expr::Int(0), Expr::Int(SITES), l2));
    k
}

/// swm256: shallow-water stencil whose body is just over the factor-4
/// size budget: unrolling by 4 falls back to a factor-2 partial unroll,
/// while the factor-8 budget (128) admits a factor-4 unroll — the paper's
/// footnote-2 phenomenon (LU4 ≈ 1.00, LU8 ≈ 1.44).
fn swm256_kernel() -> Kernel {
    const NI: i64 = 32;
    const NJ: i64 = 64;
    let mut k = Kernel::new("swm256");
    let u = k.array("u", (NI * NJ) as u64, ArrayInit::Random(0x5331));
    let v = k.array("v", (NI * NJ) as u64, ArrayInit::Random(0x5332));
    let p = k.array("p", (NI * NJ) as u64, ArrayInit::Random(0x5333));
    let unew = k.array("unew", (NI * NJ) as u64, ArrayInit::Zero);
    let i = k.int_var("i");
    let j = k.int_var("j");
    // A wide 9-ish-point stencil: ~17-20 instructions after lowering.
    let body = vec![k.store(
        unew,
        idx2(i, NJ, j),
        ld(u, idx2(i, NJ, j))
            + (ld(u, Index::two(i, NJ, j, 1, -NJ)) + ld(u, Index::two(i, NJ, j, 1, NJ))
                - ld(u, idx2(i, NJ, j)) * Expr::Float(2.0))
                * Expr::Float(0.5)
            + ld(v, idx2(i, NJ, j)) * Expr::Float(0.25)
            + ld(p, idx2(i, NJ, j)) * ld(v, idx2(i, NJ, j))
            - ld(p, Index::two(i, NJ, j, 1, -NJ)) * Expr::Float(0.125),
    )];
    let rows = vec![k.for_loop(j, Expr::Int(0), Expr::Int(NJ), body)];
    k.push(k.for_loop(i, Expr::Int(1), Expr::Int(NI - 1), rows));

    let relax = vec![k.store(
        v,
        idx2(i, NJ, j),
        ld(v, idx2(i, NJ, j)) + ld(unew, idx2(i, NJ, j)) * Expr::Float(0.05),
    )];
    let rows2 = vec![k.for_loop(j, Expr::Int(0), Expr::Int(NJ), relax)];
    k.push(k.for_loop(i, Expr::Int(1), Expr::Int(NI - 1), rows2));
    k
}

/// tomcatv: mesh generation — long sequential sweeps over large,
/// *read-only* arrays: the locality-analysis best case (paper: LA speedup
/// 1.5 on this program).
fn tomcatv_kernel() -> Kernel {
    const NI: i64 = 96;
    const NJ: i64 = 128;
    let mut k = Kernel::new("tomcatv");
    let x = k.array("X", (NI * NJ) as u64, ArrayInit::Random(0x70c1));
    let y = k.array("Y", (NI * NJ) as u64, ArrayInit::Random(0x70c2));
    let rx = k.array("RX", (NI * NJ) as u64, ArrayInit::Zero);
    let ry = k.array("RY", (NI * NJ) as u64, ArrayInit::Zero);
    let i = k.int_var("i");
    let j = k.int_var("j");
    let body = vec![
        k.store(
            rx,
            idx2(i, NJ, j),
            ld(x, idx2(i, NJ, j)) * Expr::Float(2.0)
                - ld(x, Index::two(i, NJ, j, 1, NJ))
                - ld(x, Index::two(i, NJ, j, 1, -NJ))
                + ld(y, idx2(i, NJ, j)) * Expr::Float(0.5),
        ),
        k.store(
            ry,
            idx2(i, NJ, j),
            ld(y, idx2(i, NJ, j)) * Expr::Float(2.0)
                - ld(y, Index::two(i, NJ, j, 1, NJ))
                - ld(y, Index::two(i, NJ, j, 1, -NJ))
                + ld(x, idx2(i, NJ, j)) * Expr::Float(0.5),
        ),
    ];
    let rows = vec![k.for_loop(j, Expr::Int(0), Expr::Int(NJ), body)];
    k.push(k.for_loop(i, Expr::Int(1), Expr::Int(NI - 1), rows));
    k
}

/// The SPEC92 kernels, in Table 1 order.
pub(super) fn kernels() -> Vec<KernelSpec> {
    vec![
        KernelSpec {
            name: "alvinn",
            suite: Suite::Spec92,
            lang: "C",
            description: "Trains a neural network using back propagation",
            shape: "serial dot-product accumulator chains",
            kernel: alvinn_kernel,
        },
        KernelSpec {
            name: "dnasa7",
            suite: Suite::Spec92,
            lang: "Fortran",
            description: "Matrix manipulation routines",
            shape: "matrix multiply + wide independent element-wise streams",
            kernel: dnasa7_kernel,
        },
        KernelSpec {
            name: "doduc",
            suite: Suite::Spec92,
            lang: "Fortran",
            description:
                "Monte Carlo simulation of the time evolution of a nuclear reactor component",
            shape: "multiple un-predicable conditionals per loop; divide heavy",
            kernel: doduc_kernel,
        },
        KernelSpec {
            name: "ear",
            suite: Suite::Spec92,
            lang: "C",
            description: "Simulates the propagation of sound in the human cochlea",
            shape: "serial IIR filter recurrences (fixed-latency bound)",
            kernel: ear_kernel,
        },
        KernelSpec {
            name: "hydro2d",
            suite: Suite::Spec92,
            lang: "Fortran",
            description: "Solves hydrodynamical Navier Stokes equations to compute galactical jets",
            shape: "2-D sweeps over arrays larger than the L2",
            kernel: hydro2d_kernel,
        },
        KernelSpec {
            name: "mdljdp2",
            suite: Suite::Spec92,
            lang: "Fortran",
            description: "Chemical application program that solves equations of motion for atoms",
            shape: "cutoff conditionals with stores; never unrolled",
            kernel: mdljdp2_kernel,
        },
        KernelSpec {
            name: "ora",
            suite: Suite::Spec92,
            lang: "Fortran",
            description:
                "Traces rays through an optical system composed of spherical and planar surfaces",
            shape: "one large loop-free scalar body; ~zero load interlocks",
            kernel: ora_kernel,
        },
        KernelSpec {
            name: "spice2g6",
            suite: Suite::Spec92,
            lang: "Fortran",
            description: "Circuit simulation package",
            shape: "serially dependent dynamic-index loads through a 96 KB table",
            kernel: spice2g6_kernel,
        },
        KernelSpec {
            name: "su2cor",
            suite: Suite::Spec92,
            lang: "Fortran",
            description:
                "Computes masses of elementary particles in the framework of the Quark-Gluon theory",
            shape: "unit-stride SoA matrix-vector sweeps",
            kernel: su2cor_kernel,
        },
        KernelSpec {
            name: "swm256",
            suite: Suite::Spec92,
            lang: "Fortran",
            description: "Solves shallow water equations using finite difference equations",
            shape: "stencil body just over the factor-4 unroll budget",
            kernel: swm256_kernel,
        },
        KernelSpec {
            name: "tomcatv",
            suite: Suite::Spec92,
            lang: "Fortran",
            description: "Vectorized mesh generation program",
            shape: "sequential sweeps over large read-only arrays (LA best case)",
            kernel: tomcatv_kernel,
        },
    ]
}
