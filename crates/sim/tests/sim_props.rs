//! Randomized property tests for the timing simulator: functional
//! behaviour is configuration-independent, and timing responds sanely
//! to machine parameters. Cases come from the workspace's seeded
//! [`Prng`].

use bsched_ir::{Interp, Program};
use bsched_sim::{SimConfig, Simulator};

/// A simulator for an ad-hoc machine description.
fn sim<'p>(p: &'p bsched_ir::Program, config: SimConfig) -> Simulator<'p> {
    Simulator::for_machine(p, &bsched_sim::MachineSpec::custom(config))
}
use bsched_util::Prng;
use bsched_workloads::lang::ast::{Expr, Index};
use bsched_workloads::lang::{ArrayInit, Kernel};

fn stream(n: i64, seed: u64) -> Program {
    let mut k = Kernel::new("s");
    let a = k.array("a", n as u64 + 8, ArrayInit::Random(seed));
    let i = k.int_var("i");
    let body = vec![k.store(
        a,
        Index::of(i),
        Expr::load(a, Index::of(i)) * Expr::Float(1.25) + Expr::load(a, Index::of_plus(i, 1)),
    )];
    k.push(k.for_loop(i, Expr::Int(0), Expr::Int(n), body));
    k.lower()
}

#[test]
fn timing_configs_never_change_functional_results() {
    let mut rng = Prng::new(0x51A_0001);
    for case in 0..24 {
        let n = rng.range_i64(1, 96);
        let seed = rng.range_u64(0, 1000);
        let width = [1u32, 2, 4][rng.index(3)];
        let mshrs = [1usize, 6][rng.index(2)];
        let ifetch = rng.coin();
        let p = stream(n, seed);
        let reference = Interp::new(&p).run().unwrap().checksum;
        let cfg = SimConfig::default()
            .with_issue(width, (width / 2).max(1))
            .with_mshrs(mshrs)
            .with_ifetch(ifetch);
        let sim = sim(&p, cfg).run().unwrap();
        assert_eq!(sim.checksum, reference, "case {case} (n {n}, seed {seed})");
        assert!(
            sim.metrics.cycles >= sim.metrics.insts.total() / u64::from(width).max(1),
            "case {case} (n {n}, seed {seed})"
        );
    }
}

#[test]
fn wider_issue_never_slows_down() {
    let mut rng = Prng::new(0x51A_0002);
    for case in 0..24 {
        let n = rng.range_i64(8, 96);
        let seed = rng.range_u64(0, 100);
        let p = stream(n, seed);
        let base = SimConfig::default().with_ifetch(false);
        let w1 = sim(&p, base).run().unwrap().metrics.cycles;
        let w4 = sim(&p, base.with_issue(4, 2)).run().unwrap().metrics.cycles;
        assert!(w4 <= w1, "case {case}: width 4 {w4} vs width 1 {w1}");
    }
}

#[test]
fn more_mshrs_never_slow_down() {
    let mut rng = Prng::new(0x51A_0003);
    for case in 0..24 {
        let n = rng.range_i64(8, 96);
        let seed = rng.range_u64(0, 100);
        let p = stream(n, seed);
        let base = SimConfig::default().with_ifetch(false);
        let m1 = sim(&p, base.with_mshrs(1)).run().unwrap().metrics.cycles;
        let m6 = sim(&p, base.with_mshrs(6)).run().unwrap().metrics.cycles;
        assert!(m6 <= m1, "case {case}: 6 MSHRs {m6} vs 1 MSHR {m1}");
    }
}

#[test]
fn cycle_accounting_is_complete() {
    let mut rng = Prng::new(0x51A_0004);
    for case in 0..24 {
        let n = rng.range_i64(4, 64);
        let seed = rng.range_u64(0, 100);
        // Interlocks + penalties never exceed total cycles.
        let p = stream(n, seed);
        let m = sim(&p, SimConfig::default()).run().unwrap().metrics;
        let accounted = m.load_interlock
            + m.fixed_interlock
            + m.branch_penalty
            + m.store_stall
            + m.fetch_stall
            + m.tlb_stall;
        assert!(accounted <= m.cycles, "case {case}: {m:?}");
    }
}
