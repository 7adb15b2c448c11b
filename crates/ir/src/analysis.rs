//! The shared DAG-analysis kernel behind balanced-scheduling weights.
//!
//! The Kerns–Eggers weight computation asks, for every *contributor*
//! instruction, which loads it is independent of and how those loads
//! group into comparability components. Answering those questions by
//! walking the DAG per contributor is O(n·L) reachability probes plus an
//! O(k²) union-find per contributor — the dominant cost of balanced
//! scheduling on unrolled regions.
//!
//! [`DagAnalysis`] computes everything once per DAG, in load-slot space:
//!
//! * a **load index** mapping instruction indices to dense load slots;
//! * an **independence matrix** — for every instruction, a u64-blocked
//!   bitset over load slots of the loads independent of it, sliced from
//!   the DAG's transitive-reachability closures;
//! * a **comparability adjacency** — for every load, the bitset of loads
//!   serialised with it (the complement of its independence row);
//! * a memoizing **component-credit table**: the coverage credits for a
//!   given covered-load bitset are computed once (bitset BFS over the
//!   comparability adjacency) and replayed for every contributor sharing
//!   that covered set — on unrolled loop bodies most contributors do.
//!
//! One analysis is shared across contributors, weight policies, and —
//! through the process-wide structural cache (see [`cache_stats`]) —
//! across experiment cells that compile identical regions (e.g. the
//! TS/BS cell pairs of the experiment grid, whose code only diverges at
//! scheduling). `bsched-harness` surfaces the cache's hit rate in its run
//! report, next to the result-cache statistics.

use crate::dag::Dag;
use crate::inst::Inst;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Memo table from covered-load bitset to its component-credit vector.
type CreditMemo = HashMap<Box<[u64]>, Arc<Vec<f64>>>;

/// Words needed for a bitset over `n` bits.
fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// Sentinel slot for "not a load".
const NO_SLOT: u32 = u32::MAX;

/// Per-DAG analysis shared by the weight policies and the scheduler.
///
/// Built lazily (and at most once) per [`Dag`] via [`Dag::analysis`];
/// structurally identical DAGs share one instance through a process-wide
/// cache.
#[derive(Debug)]
pub struct DagAnalysis {
    /// Instruction index of each load slot, ascending program order.
    loads: Vec<u32>,
    /// Instruction index → load slot (or [`NO_SLOT`]).
    slot_of: Vec<u32>,
    /// Words per load-slot row.
    words: usize,
    /// `n × words`: row `i` holds the loads independent of instruction
    /// `i` (neither reaches the other in the DAG).
    indep: Vec<u64>,
    /// `L × words`: row `s` holds the loads *comparable* to (serialised
    /// with) the load in slot `s`.
    comp: Vec<u64>,
    /// Memoized component credits per covered-load bitset.
    credits: Mutex<CreditMemo>,
}

impl DagAnalysis {
    /// Computes the analysis for `dag` over `insts`.
    ///
    /// # Panics
    ///
    /// Panics if `dag.len() != insts.len()`.
    #[must_use]
    pub fn compute(dag: &Dag, insts: &[Inst]) -> Self {
        let n = insts.len();
        assert_eq!(dag.len(), n, "DAG does not match region");
        let loads: Vec<u32> = (0..n)
            .filter(|&i| insts[i].op.is_load())
            .map(|i| i as u32)
            .collect();
        let mut slot_of = vec![NO_SLOT; n];
        for (s, &l) in loads.iter().enumerate() {
            slot_of[l as usize] = s as u32;
        }
        let nl = loads.len();
        let words = words_for(nl).max(1);

        // Independence rows, sliced from the reachability closures: load
        // `l` is independent of instruction `i` when neither reaches the
        // other. One pass over (instruction × load slot).
        let mut indep = vec![0u64; n * words];
        for i in 0..n {
            let row = &mut indep[i * words..(i + 1) * words];
            for (s, &l) in loads.iter().enumerate() {
                let l = l as usize;
                if i != l && !dag.reaches(i, l) && !dag.reaches(l, i) {
                    row[s / 64] |= 1 << (s % 64);
                }
            }
        }

        // Comparability adjacency: the complement of a load's own
        // independence row, restricted to the other load slots.
        let mut comp = vec![0u64; nl * words];
        for (s, &l) in loads.iter().enumerate() {
            let src = &indep[(l as usize) * words..(l as usize + 1) * words];
            let row = &mut comp[s * words..(s + 1) * words];
            for w in 0..words {
                row[w] = !src[w];
            }
            // Mask off the self bit and the padding above `nl`.
            row[s / 64] &= !(1u64 << (s % 64));
            if !nl.is_multiple_of(64) {
                row[words - 1] &= (1u64 << (nl % 64)) - 1;
            }
        }

        DagAnalysis {
            loads,
            slot_of,
            words,
            indep,
            comp,
            credits: Mutex::new(HashMap::new()),
        }
    }

    /// Number of loads in the region.
    #[must_use]
    pub fn num_loads(&self) -> usize {
        self.loads.len()
    }

    /// Words per load-slot bitset row.
    #[must_use]
    pub fn row_words(&self) -> usize {
        self.words
    }

    /// Instruction indices of the loads, in program order (slot order).
    #[must_use]
    pub fn loads(&self) -> &[u32] {
        &self.loads
    }

    /// The load slot of instruction `i`, if it is a load.
    #[must_use]
    pub fn slot_of(&self, i: usize) -> Option<usize> {
        match self.slot_of[i] {
            NO_SLOT => None,
            s => Some(s as usize),
        }
    }

    /// Bitset row (over load slots) of the loads independent of
    /// instruction `i`.
    #[must_use]
    pub fn independent_loads(&self, i: usize) -> &[u64] {
        &self.indep[i * self.words..(i + 1) * self.words]
    }

    /// Bitset row (over load slots) of the loads comparable to the load
    /// in slot `s`.
    #[must_use]
    pub fn comparable_loads(&self, s: usize) -> &[u64] {
        &self.comp[s * self.words..(s + 1) * self.words]
    }

    /// `true` if instruction `i` and the load in slot `s` are
    /// independent.
    #[must_use]
    pub fn independent_of_slot(&self, i: usize, s: usize) -> bool {
        self.independent_loads(i)[s / 64] >> (s % 64) & 1 == 1
    }

    /// The per-slot coverage credits of a covered-load bitset: every
    /// covered load in a comparability component of size `k` receives
    /// `1/k`. The result is memoized per distinct bitset, aligned with
    /// `covered`'s set bits in ascending slot order.
    ///
    /// # Panics
    ///
    /// Panics if `covered.len() != self.row_words()`.
    #[must_use]
    pub fn component_credits(&self, covered: &[u64]) -> Arc<Vec<f64>> {
        assert_eq!(covered.len(), self.words);
        if let Some(hit) = self
            .credits
            .lock()
            .expect("credit memo poisoned")
            .get(covered)
        {
            return Arc::clone(hit);
        }
        let shares = Arc::new(self.compute_credits(covered));
        self.credits
            .lock()
            .expect("credit memo poisoned")
            .insert(covered.into(), Arc::clone(&shares));
        shares
    }

    /// Uncached credit computation: bitset BFS over the comparability
    /// adjacency restricted to `covered`.
    fn compute_credits(&self, covered: &[u64]) -> Vec<f64> {
        let words = self.words;
        let total: usize = covered.iter().map(|w| w.count_ones() as usize).sum();
        // share[rank] for the rank-th set bit of `covered`.
        let mut shares = vec![0f64; total];
        // Rank lookup: slot -> dense rank within `covered`.
        let mut rank_of = HashMap::with_capacity(total);
        let mut rank = 0usize;
        for (w, &bits) in covered.iter().enumerate() {
            let mut b = bits;
            while b != 0 {
                let s = w * 64 + b.trailing_zeros() as usize;
                rank_of.insert(s, rank);
                rank += 1;
                b &= b - 1;
            }
        }

        let mut remaining: Vec<u64> = covered.to_vec();
        let mut members = vec![0u64; words];
        let mut frontier = vec![0u64; words];
        let mut next = vec![0u64; words];
        while let Some(seed) = first_set(&remaining) {
            for w in 0..words {
                members[w] = 0;
                frontier[w] = 0;
            }
            members[seed / 64] |= 1 << (seed % 64);
            frontier[seed / 64] |= 1 << (seed % 64);
            loop {
                next.iter_mut().for_each(|w| *w = 0);
                for (w, &bits) in frontier.iter().enumerate() {
                    let mut b = bits;
                    while b != 0 {
                        let s = w * 64 + b.trailing_zeros() as usize;
                        let adj = self.comparable_loads(s);
                        for x in 0..words {
                            next[x] |= adj[x];
                        }
                        b &= b - 1;
                    }
                }
                let mut grew = false;
                for w in 0..words {
                    next[w] &= covered[w] & !members[w];
                    if next[w] != 0 {
                        grew = true;
                    }
                    members[w] |= next[w];
                }
                if !grew {
                    break;
                }
                std::mem::swap(&mut frontier, &mut next);
            }
            let size: u32 = members.iter().map(|w| w.count_ones()).sum();
            let share = 1.0 / f64::from(size);
            for (w, &bits) in members.iter().enumerate() {
                let mut b = bits;
                while b != 0 {
                    let s = w * 64 + b.trailing_zeros() as usize;
                    shares[rank_of[&s]] = share;
                    b &= b - 1;
                }
                remaining[w] &= !bits;
            }
        }
        shares
    }
}

/// Index of the lowest set bit across `words`, if any.
fn first_set(words: &[u64]) -> Option<usize> {
    for (w, &bits) in words.iter().enumerate() {
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
    }
    None
}

// ── Process-wide structural cache ───────────────────────────────────────

/// Structural key of a DAG for the cross-cell analysis cache: node
/// count, the load bitmap, and every edge. Edge kinds are excluded —
/// the analysis only consumes reachability.
fn structural_key(dag: &Dag, insts: &[Inst]) -> Vec<u64> {
    let n = dag.len();
    let mut key = Vec::with_capacity(n + words_for(n) + 2);
    key.push(n as u64);
    let mut word = 0u64;
    for (i, inst) in insts.iter().enumerate() {
        if inst.op.is_load() {
            word |= 1 << (i % 64);
        }
        if i % 64 == 63 {
            key.push(word);
            word = 0;
        }
    }
    if !n.is_multiple_of(64) {
        key.push(word);
    }
    for i in 0..n {
        for &(t, _) in dag.succs(i) {
            key.push(((i as u64) << 32) | u64::from(t));
        }
    }
    key
}

/// Entry cap for the process-wide cache; beyond it new analyses are
/// still computed, just not retained (first-come retention — the grid's
/// block shapes recur, so early entries are the hot ones).
const CACHE_CAP: usize = 4096;

struct GlobalCache {
    map: Mutex<HashMap<Vec<u64>, Arc<DagAnalysis>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

fn global_cache() -> &'static GlobalCache {
    static CACHE: OnceLock<GlobalCache> = OnceLock::new();
    CACHE.get_or_init(|| GlobalCache {
        map: Mutex::new(HashMap::new()),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
    })
}

/// Looks up (or computes and caches) the analysis for a DAG by
/// structural identity. Used by [`Dag::analysis`]; exposed for tests.
#[must_use]
pub fn cached_analysis(dag: &Dag, insts: &[Inst]) -> Arc<DagAnalysis> {
    let cache = global_cache();
    let key = structural_key(dag, insts);
    if let Some(hit) = cache.map.lock().expect("analysis cache poisoned").get(&key) {
        cache.hits.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(hit);
    }
    cache.misses.fetch_add(1, Ordering::Relaxed);
    let analysis = Arc::new(DagAnalysis::compute(dag, insts));
    let mut map = cache.map.lock().expect("analysis cache poisoned");
    if map.len() < CACHE_CAP {
        map.insert(key, Arc::clone(&analysis));
    }
    analysis
}

/// Snapshot of the process-wide analysis cache: `(hits, misses,
/// entries)`. The harness prints this in its stderr run report.
#[must_use]
pub fn cache_stats() -> (u64, u64, usize) {
    let cache = global_cache();
    let entries = cache.map.lock().expect("analysis cache poisoned").len();
    (
        cache.hits.load(Ordering::Relaxed),
        cache.misses.load(Ordering::Relaxed),
        entries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;
    use crate::opcode::Op;
    use crate::program::RegionId;
    use crate::reg::{Reg, RegClass};

    fn r(n: u32) -> Reg {
        Reg::virt(RegClass::Int, n)
    }
    fn f(n: u32) -> Reg {
        Reg::virt(RegClass::Float, n)
    }

    /// Figure 1: L0, L1 independent; L2 -> L3 serial; X1, X2 free.
    fn figure1() -> Vec<Inst> {
        let l2res = r(10);
        let l3base = r(11);
        vec![
            Inst::load(f(0), r(0), 0).with_region(RegionId::new(0)),
            Inst::load(f(1), r(1), 0).with_region(RegionId::new(1)),
            Inst::load(l2res, r(2), 0).with_region(RegionId::new(2)),
            Inst::op_imm(Op::Add, l3base, l2res, 8),
            Inst::load(f(3), l3base, 0).with_region(RegionId::new(3)),
            Inst::op(Op::FAdd, f(4), &[f(6), f(7)]),
            Inst::op(Op::FAdd, f(5), &[f(8), f(9)]),
        ]
    }

    #[test]
    fn load_index_maps_both_ways() {
        let insts = figure1();
        let dag = Dag::new(&insts);
        let a = DagAnalysis::compute(&dag, &insts);
        assert_eq!(a.num_loads(), 4);
        assert_eq!(a.loads(), &[0, 1, 2, 4]);
        assert_eq!(a.slot_of(0), Some(0));
        assert_eq!(a.slot_of(4), Some(3));
        assert_eq!(a.slot_of(3), None);
        assert_eq!(a.slot_of(5), None);
    }

    #[test]
    fn independence_rows_match_dag_queries() {
        let insts = figure1();
        let dag = Dag::new(&insts);
        let a = DagAnalysis::compute(&dag, &insts);
        for i in 0..insts.len() {
            for (s, &l) in a.loads().iter().enumerate() {
                assert_eq!(
                    a.independent_of_slot(i, s),
                    dag.independent(i, l as usize),
                    "mismatch at inst {i}, load slot {s}"
                );
            }
        }
    }

    #[test]
    fn comparability_adjacency_matches_dag_queries() {
        let insts = figure1();
        let dag = Dag::new(&insts);
        let a = DagAnalysis::compute(&dag, &insts);
        for sa in 0..a.num_loads() {
            let row = a.comparable_loads(sa);
            for sb in 0..a.num_loads() {
                let bit = row[sb / 64] >> (sb % 64) & 1 == 1;
                let expect =
                    sa != sb && dag.comparable(a.loads()[sa] as usize, a.loads()[sb] as usize);
                assert_eq!(bit, expect, "mismatch at slots {sa}, {sb}");
            }
        }
    }

    #[test]
    fn component_credits_split_serial_pairs() {
        let insts = figure1();
        let dag = Dag::new(&insts);
        let a = DagAnalysis::compute(&dag, &insts);
        // Cover all four loads: components {L0}, {L1}, {L2, L3}.
        let covered = vec![0b1111u64];
        let credits = a.component_credits(&covered);
        assert_eq!(credits.as_slice(), &[1.0, 1.0, 0.5, 0.5]);
        // Memoized: the same Arc comes back.
        let again = a.component_credits(&covered);
        assert!(Arc::ptr_eq(&credits, &again));
        // A sub-cover excluding L3 leaves L2 alone in its component.
        let partial = vec![0b0111u64];
        assert_eq!(a.component_credits(&partial).as_slice(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn empty_and_loadless_regions() {
        let insts: Vec<Inst> = vec![];
        let dag = Dag::new(&insts);
        let a = DagAnalysis::compute(&dag, &insts);
        assert_eq!(a.num_loads(), 0);

        let insts = vec![Inst::li(r(0), 1), Inst::op_imm(Op::Add, r(1), r(0), 1)];
        let dag = Dag::new(&insts);
        let a = DagAnalysis::compute(&dag, &insts);
        assert_eq!(a.num_loads(), 0);
        assert!(a.independent_loads(0).iter().all(|&w| w == 0));
    }

    #[test]
    fn wide_region_crosses_word_boundaries() {
        // 70 independent loads + one FP op: exercises the 2-word rows.
        let mut insts = Vec::new();
        for k in 0..70u32 {
            insts.push(Inst::load(f(k), r(k % 4), i64::from(k) * 8).with_region(RegionId::new(0)));
        }
        insts.push(Inst::op(Op::FAdd, f(100), &[f(101), f(102)]));
        let dag = Dag::new(&insts);
        let a = DagAnalysis::compute(&dag, &insts);
        assert_eq!(a.num_loads(), 70);
        assert_eq!(a.row_words(), 2);
        let covered: Vec<u64> = a.independent_loads(70).to_vec();
        assert_eq!(
            covered.iter().map(|w| w.count_ones()).sum::<u32>(),
            70,
            "the FP op covers every load"
        );
        let credits = a.component_credits(&covered);
        assert!(credits.iter().all(|&c| (c - 1.0).abs() < 1e-12));
    }

    #[test]
    fn structural_cache_shares_identical_dags() {
        let insts = figure1();
        let d1 = Dag::new(&insts);
        let d2 = Dag::new(&insts);
        let a1 = cached_analysis(&d1, &insts);
        let a2 = cached_analysis(&d2, &insts);
        assert!(Arc::ptr_eq(&a1, &a2), "structurally equal DAGs share");
        // A different region misses.
        let other = vec![Inst::li(r(0), 1)];
        let d3 = Dag::new(&other);
        let a3 = cached_analysis(&d3, &other);
        assert_eq!(a3.num_loads(), 0);
        let (hits, misses, entries) = cache_stats();
        assert!(hits >= 1);
        assert!(misses >= 2);
        assert!(entries >= 2);
    }
}
