//! Property tests for the sampled-simulation subsystem: the seeded
//! k-means clusterer ([`bsched_sim::sample::kmeans`]) and the
//! end-to-end sampled mode. Cases come from the workspace's seeded
//! [`Prng`], so every run exercises the same inputs.

use bsched_sim::sample::kmeans::{cluster, Clustering};
use bsched_sim::{SampleConfig, SimConfig, SimMode, Simulator};

/// A simulator for an ad-hoc machine description.
fn sim<'p>(p: &'p bsched_ir::Program, config: SimConfig) -> Simulator<'p> {
    Simulator::for_machine(p, &bsched_sim::MachineSpec::custom(config))
}
use bsched_util::Prng;
use bsched_workloads::lang::ast::{Expr, Index};
use bsched_workloads::lang::{ArrayInit, Kernel};

/// Random BBV-shaped inputs: `n` L1-normalized non-negative vectors of
/// width `dim`, plus positive per-interval sizes.
fn random_bbvs(rng: &mut Prng, n: usize, dim: usize) -> (Vec<Vec<f64>>, Vec<u64>) {
    let mut bbvs = Vec::with_capacity(n);
    let mut sizes = Vec::with_capacity(n);
    for _ in 0..n {
        let mut v: Vec<f64> = (0..dim).map(|_| rng.range_f64(0.0, 1.0)).collect();
        let total: f64 = v.iter().sum();
        if total > 0.0 {
            for x in &mut v {
                *x /= total;
            }
        }
        bbvs.push(v);
        sizes.push(rng.range_u64(1, 5000));
    }
    (bbvs, sizes)
}

#[test]
fn clustering_is_deterministic_across_runs_and_threads() {
    let mut rng = Prng::new(0x5A3_0001);
    for case in 0..16 {
        let n = rng.index(60) + 1;
        let dim = rng.index(24) + 1;
        let k = rng.index(10) + 1;
        let seed = rng.next_u64();
        let (bbvs, sizes) = random_bbvs(&mut rng, n, dim);

        let reference = cluster(&bbvs, &sizes, k, seed);
        let again = cluster(&bbvs, &sizes, k, seed);
        assert_eq!(reference, again, "case {case}: same-thread rerun diverged");

        // Determinism must not depend on which thread runs the
        // clustering (no thread-locals, no ambient state).
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (bbvs, sizes) = (bbvs.clone(), sizes.clone());
                std::thread::spawn(move || cluster(&bbvs, &sizes, k, seed))
            })
            .collect();
        for h in handles {
            let c: Clustering = h.join().expect("clustering thread panicked");
            assert_eq!(reference, c, "case {case}: cross-thread run diverged");
        }
    }
}

#[test]
fn every_interval_is_assigned_to_a_live_cluster() {
    let mut rng = Prng::new(0x5A3_0002);
    for case in 0..32 {
        let n = rng.index(80) + 1;
        let dim = rng.index(30) + 1;
        let k = rng.index(12) + 1;
        let seed = rng.next_u64();
        let (bbvs, sizes) = random_bbvs(&mut rng, n, dim);
        let c = cluster(&bbvs, &sizes, k, seed);

        assert_eq!(c.assignment.len(), n, "case {case}");
        assert!(
            c.k() >= 1 && c.k() <= k.min(n),
            "case {case}: k() = {}",
            c.k()
        );
        let mut member_count = vec![0usize; c.k()];
        for (i, &cl) in c.assignment.iter().enumerate() {
            assert!(
                cl < c.k(),
                "case {case}: interval {i} assigned to dropped cluster {cl}"
            );
            member_count[cl] += 1;
        }
        for (cl, &count) in member_count.iter().enumerate() {
            assert!(
                count > 0,
                "case {case}: cluster {cl} is empty but was not dropped"
            );
        }
        // Each representative is a member of the cluster it represents.
        for (cl, &rep) in c.reps.iter().enumerate() {
            assert_eq!(c.assignment[rep], cl, "case {case}");
        }
    }
}

#[test]
fn weights_are_positive_and_sum_to_one() {
    let mut rng = Prng::new(0x5A3_0003);
    for case in 0..32 {
        let n = rng.index(80) + 1;
        let dim = rng.index(30) + 1;
        let k = rng.index(12) + 1;
        let seed = rng.next_u64();
        let (bbvs, sizes) = random_bbvs(&mut rng, n, dim);
        let c = cluster(&bbvs, &sizes, k, seed);

        assert!(
            c.weights.iter().all(|&w| w > 0.0),
            "case {case}: {:?}",
            c.weights
        );
        let sum: f64 = c.weights.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "case {case}: weights sum to {sum}"
        );
    }
}

#[test]
fn k_larger_than_n_degrades_to_one_cluster_per_interval() {
    let mut rng = Prng::new(0x5A3_0004);
    for case in 0..16 {
        let n = rng.index(12) + 1;
        let dim = rng.index(8) + 1;
        let (bbvs, sizes) = random_bbvs(&mut rng, n, dim);
        for extra in [0, 1, 7, 1000] {
            let c = cluster(&bbvs, &sizes, n + extra, case as u64);
            assert_eq!(c.k(), n, "case {case} (+{extra})");
            assert_eq!(
                c.assignment,
                (0..n).collect::<Vec<_>>(),
                "case {case} (+{extra})"
            );
            assert_eq!(c.reps, (0..n).collect::<Vec<_>>(), "case {case} (+{extra})");
        }
    }
}

fn stream(n: i64, seed: u64) -> bsched_ir::Program {
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
fn sampled_runs_report_exact_functional_results() {
    let mut rng = Prng::new(0x5A3_0005);
    for case in 0..12 {
        let n = rng.range_i64(4, 120);
        let seed = rng.range_u64(0, 1000);
        let p = stream(n, seed);
        let exact = sim(&p, SimConfig::default()).run().unwrap();
        let sample = SampleConfig {
            interval: [64, 256, 1024][rng.index(3)],
            k: [1, 2, 4, 8][rng.index(4)],
            reps: [1, 2, 4][rng.index(3)],
            seed: rng.next_u64(),
        };
        let sampled = sim(&p, SimConfig::default())
            .with_mode(SimMode::Sampled(sample))
            .run()
            .unwrap();
        // Instruction counts and the memory checksum come from the exact
        // functional profile — bit-equal to the exact engines, always.
        assert_eq!(sampled.checksum, exact.checksum, "case {case} ({sample})");
        assert_eq!(
            sampled.metrics.insts, exact.metrics.insts,
            "case {case} ({sample})"
        );
        let stats = sampled.sample.expect("sampled run reports stats");
        assert!(
            stats.clusters >= 1 && stats.clusters <= stats.intervals,
            "case {case}"
        );
        assert!(stats.sampled_insts <= stats.total_insts, "case {case}");
        assert!(sampled.metrics.cycles > 0, "case {case}");
    }
}

#[test]
fn sampled_runs_are_deterministic() {
    let p = stream(64, 7);
    let sample = SampleConfig::default();
    let cfg = SimConfig::default();
    let run = |_: u32| {
        sim(&p, cfg)
            .with_mode(SimMode::Sampled(sample))
            .run()
            .unwrap()
    };
    let a = run(0);
    let b = run(1);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.sample, b.sample);
}

/// One interval spanning the whole program (`interval` ≥ retired
/// instructions, `k=1,reps=1`) is replayed from a cold start with
/// weight 1, so the sampled estimate must *be* the exact interpreted
/// run: every `SimMetrics` field (cycles, each stall counter, each
/// `MemStats` counter, the instruction counts) and the checksum.
#[test]
fn whole_program_interval_replays_the_exact_run() {
    use bsched_sim::{MachineSpec, SimEngine};
    let kernel = |name| bsched_workloads::kernel_by_name(name).unwrap().program();
    let programs = [
        ("TRFD", kernel("TRFD")),
        ("ARC2D", kernel("ARC2D")),
        ("stream", stream(96, 11)),
    ];
    let machines = [
        "alpha21164",
        "wide4",
        "blocking21164",
        "alpha21164+pf=stride",
    ];
    for (name, p) in &programs {
        for spec in machines {
            let machine: MachineSpec = spec.parse().unwrap();
            let exact = Simulator::for_machine(p, &machine)
                .with_engine(SimEngine::Interpret)
                .run()
                .unwrap();
            let sample = SampleConfig {
                interval: exact.metrics.insts.total(),
                k: 1,
                reps: 1,
                ..SampleConfig::default()
            };
            let sampled = Simulator::for_machine(p, &machine)
                .with_mode(SimMode::Sampled(sample))
                .run()
                .unwrap();
            let stats = sampled.sample.expect("sampled run reports stats");
            assert_eq!(stats.intervals, 1, "{name} on {spec}");
            assert_eq!(stats.sampled_insts, stats.total_insts, "{name} on {spec}");
            assert_eq!(sampled.metrics, exact.metrics, "{name} on {spec}");
            assert_eq!(sampled.checksum, exact.checksum, "{name} on {spec}");
        }
    }
}
