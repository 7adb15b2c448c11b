//! Randomized property tests for the memory hierarchy, driven by the
//! workspace's seeded [`Prng`] for reproducibility.

use bsched_mem::{Cache, CacheConfig, Hierarchy, MemConfig, Tlb};
use bsched_util::Prng;

fn gen_addrs(rng: &mut Prng, bound: u64, min: usize, max: usize) -> Vec<u64> {
    let n = min + rng.index(max - min);
    (0..n).map(|_| rng.range_u64(0, bound)).collect()
}

#[test]
fn access_timing_is_sane() {
    let mut rng = Prng::new(0x3E3_0001);
    for case in 0..64 {
        let addrs = gen_addrs(&mut rng, 1 << 22, 1, 200);
        let mut h = Hierarchy::new(MemConfig::alpha21164(), 0..0);
        let mut now = 0u64;
        for &a in &addrs {
            let acc = h.data_read(a & !7, now);
            assert!(acc.issue_at >= now, "case {case}: no time travel");
            assert!(
                acc.ready_at >= acc.issue_at + 2,
                "case {case}: at least the hit latency"
            );
            assert!(
                acc.ready_at <= acc.issue_at + 50,
                "case {case}: at most the memory latency"
            );
            now = acc.issue_at + 1;
        }
    }
}

#[test]
fn second_touch_is_at_least_as_fast() {
    let mut rng = Prng::new(0x3E3_0002);
    for case in 0..64 {
        let addrs = gen_addrs(&mut rng, 1 << 20, 1, 64);
        let mut h = Hierarchy::new(MemConfig::alpha21164(), 0..0);
        let mut now = 0;
        for &a in &addrs {
            let first = h.data_read(a & !7, now);
            now = first.ready_at + 1;
            let again = h.data_read(a & !7, now);
            assert!(
                again.ready_at - again.issue_at <= first.ready_at - first.issue_at,
                "case {case}: a just-touched line cannot get slower"
            );
            now = again.ready_at + 1;
        }
    }
}

#[test]
fn hierarchy_is_deterministic() {
    let mut rng = Prng::new(0x3E3_0003);
    for case in 0..64 {
        let addrs = gen_addrs(&mut rng, 1 << 21, 1, 128);
        let run = || {
            let mut h = Hierarchy::new(MemConfig::alpha21164(), 0..0);
            let mut now = 0;
            let mut log = Vec::new();
            for &a in &addrs {
                let acc = h.data_read(a & !7, now);
                log.push((acc.issue_at, acc.ready_at, acc.level));
                now = acc.issue_at + 1;
            }
            log
        };
        assert_eq!(run(), run(), "case {case}");
    }
}

#[test]
fn cache_respects_its_capacity() {
    let mut rng = Prng::new(0x3E3_0004);
    for case in 0..64 {
        let addrs = gen_addrs(&mut rng, 1 << 16, 1, 300);
        // A cache never holds more distinct lines than size/line.
        let cfg = CacheConfig {
            size: 1024,
            line: 32,
            assoc: 2,
            latency: 2,
        };
        let mut c = Cache::new(cfg);
        for &a in &addrs {
            c.access(a);
        }
        let lines_capacity = (cfg.size / cfg.line) as usize;
        let resident = (0u64..(1 << 16) / 32)
            .filter(|&l| c.contains(l * 32))
            .count();
        assert!(resident <= lines_capacity, "case {case}");
    }
}

#[test]
fn working_set_within_assoc_always_hits() {
    let mut rng = Prng::new(0x3E3_0005);
    for case in 0..64 {
        let base = rng.range_u64(0, 1 << 12);
        // Two lines in the same set of a 2-way cache never evict each other.
        let cfg = CacheConfig {
            size: 1024,
            line: 32,
            assoc: 2,
            latency: 2,
        };
        let mut c = Cache::new(cfg);
        let sets = cfg.sets();
        let a = base * 32;
        let b = a + sets * 32; // same set, different tag
        c.access(a);
        c.access(b);
        for _ in 0..16 {
            assert!(c.access(a), "case {case}");
            assert!(c.access(b), "case {case}");
        }
    }
}

#[test]
fn tlb_capacity_bound() {
    let mut rng = Prng::new(0x3E3_0006);
    for case in 0..64 {
        let n = 1 + rng.index(199);
        let pages: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 64)).collect();
        let mut t = Tlb::new(8, 4096);
        for &p in &pages {
            t.access(p * 4096);
        }
        // The most recently used page must still be resident.
        if let Some(&last) = pages.last() {
            assert!(t.access(last * 4096), "case {case}: MRU page evicted");
        }
    }
}
