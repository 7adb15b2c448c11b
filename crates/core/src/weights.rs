//! Load-weight policies: traditional, balanced (Kerns–Eggers), and
//! selective balanced (locality-analysis aware).
//!
//! The balanced computation follows the algorithm reviewed in §2 of the
//! paper. For each *contributor* instruction `i` (an instruction whose
//! issue slot can hide load latency — any non-load, plus compile-time hit
//! loads under the selective policy):
//!
//! 1. collect the loads independent of `i` in the code DAG;
//! 2. group them into connected components under the *comparability*
//!    relation (two loads joined by a dependence path are serialised, so
//!    they compete for `i`'s single issue slot — the paper's Figure 1
//!    L2→L3 case);
//! 3. credit each load in a component of size `k` with `1/k` of a cycle.
//!
//! A load's weight is the optimistic hit latency plus its accumulated
//! credit, capped at the maximum memory latency (50 cycles, paper §4.2
//! footnote 1).
//!
//! # Two implementations
//!
//! [`compute_weights`] runs on the shared [`DagAnalysis`] bitset kernel:
//! the per-contributor covered-load set is one row-AND over u64 blocks,
//! and the component credits for each distinct covered set are computed
//! once (bitset BFS over the precomputed comparability adjacency) and
//! replayed for every contributor sharing it — on unrolled bodies most
//! do. [`compute_weights_reference`] is the retained naive walk
//! (per-contributor DAG probes + union-find); it is the executable
//! specification that the property tests and `bsched-verify` hold the
//! kernel against. Both accumulate each
//! load's credits in the same (program) order with the same `1/k`
//! values, so their results are bit-for-bit identical.

use bsched_ir::opcode::latency;
use bsched_ir::{Dag, DagAnalysis, Inst, LocalityHint};

/// Which load-weight policy the scheduler runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// Fixed optimistic (L1-hit) load weights.
    Traditional,
    /// Balanced-scheduling weights for every load.
    #[default]
    Balanced,
    /// Balanced weights for miss/unknown loads only; compile-time hits are
    /// scheduled traditionally and contribute coverage (paper §3.3).
    SelectiveBalanced,
    /// Exact branch-and-bound search under the balanced cost model: the
    /// list scheduler's balanced schedule seeds a search for the true
    /// issue-span optimum (see [`crate::exact`]). Weight-wise this is
    /// identical to [`SchedulerKind::Balanced`] — the search minimizes
    /// the same uncertain-latency objective the balanced weights encode.
    Exact,
}

impl SchedulerKind {
    /// Short name used in experiment tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Traditional => "TS",
            SchedulerKind::Balanced => "BS",
            SchedulerKind::SelectiveBalanced => "BS+LA",
            SchedulerKind::Exact => "EX",
        }
    }

    /// The paper's three heuristic policies, in table order. The exact
    /// arm is deliberately not included: the standard experiment grid,
    /// golden tables, and fuzzer seed streams iterate this array, and
    /// exact search is an oracle those compare *against*, not a fourth
    /// table column everywhere.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::Traditional,
        SchedulerKind::Balanced,
        SchedulerKind::SelectiveBalanced,
    ];
}

/// Weight-computation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightConfig {
    /// The load-weight policy.
    pub kind: SchedulerKind,
    /// Cap on balanced load weights; the paper uses the 50-cycle maximum
    /// memory latency. `--bin ablations` sweeps it on hydro2d.
    pub cap: u32,
    /// Node budget for the [`SchedulerKind::Exact`] branch-and-bound
    /// search, per region (ignored by the heuristic policies). A
    /// deterministic unit — results are machine-independent and
    /// cacheable. Zero disables the search entirely (the balanced
    /// incumbent is emitted unchanged).
    pub exact_budget: u64,
}

impl WeightConfig {
    /// Creates a configuration with the paper's cap of 50 cycles.
    #[must_use]
    pub fn new(kind: SchedulerKind) -> Self {
        WeightConfig {
            kind,
            cap: latency::MAX_LOAD,
            exact_budget: crate::exact::DEFAULT_EXACT_BUDGET,
        }
    }

    /// Overrides the weight cap.
    #[must_use]
    pub fn with_cap(mut self, cap: u32) -> Self {
        self.cap = cap;
        self
    }

    /// Overrides the exact-search node budget.
    #[must_use]
    pub fn with_exact_budget(mut self, budget: u64) -> Self {
        self.exact_budget = budget;
        self
    }
}

impl Default for WeightConfig {
    fn default() -> Self {
        WeightConfig::new(SchedulerKind::Balanced)
    }
}

/// `true` if the instruction's issue slot is treated as available
/// latency-hiding parallelism under `kind`.
fn contributes(inst: &Inst, kind: SchedulerKind) -> bool {
    if !inst.op.is_load() {
        // Every non-load (stores included) occupies an issue slot that can
        // overlap an outstanding load.
        return true;
    }
    // Loads: under the selective policy, compile-time hits behave like
    // ordinary short-latency instructions and donate their slots.
    kind == SchedulerKind::SelectiveBalanced && inst.hint == LocalityHint::Hit
}

/// `true` if the load is weighted by the balanced computation under `kind`.
fn is_balanced_load(inst: &Inst, kind: SchedulerKind) -> bool {
    if !inst.op.is_load() {
        return false;
    }
    match kind {
        SchedulerKind::Traditional => false,
        // The exact arm searches under the balanced weights — its
        // objective *is* the balanced uncertain-latency model.
        SchedulerKind::Balanced | SchedulerKind::Exact => true,
        SchedulerKind::SelectiveBalanced => inst.hint != LocalityHint::Hit,
    }
}

/// Finalizes a load's weight from its accumulated credit.
fn cap_weight(credit: f64, cap: u32) -> u32 {
    let w = f64::from(latency::LOAD_HIT) + credit;
    (w.round() as u32).min(cap).max(latency::LOAD_HIT)
}

/// The work one [`compute_weights`] call does, counted as it runs: a
/// deterministic measure of the kernel's cost that an exact-equality
/// gate can pin on any host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WeightWork {
    /// Contributor instructions scanned.
    pub contributors: u64,
    /// `u64` words read from the bitset independence rows.
    pub row_words: u64,
}

/// Computes per-instruction scheduling weights for a straight-line region
/// on the shared bitset DAG-analysis kernel.
///
/// Non-loads always get their fixed architectural latency; loads get the
/// policy-dependent weight described in the module docs.
///
/// # Panics
///
/// Panics if `dag.len() != insts.len()`.
#[must_use]
pub fn compute_weights(insts: &[Inst], dag: &Dag, config: &WeightConfig) -> Vec<u32> {
    compute_weights_counted(insts, dag, config).0
}

/// [`compute_weights`], also returning the [`WeightWork`] it did.
///
/// # Panics
///
/// Panics if `dag.len() != insts.len()`.
#[must_use]
pub fn compute_weights_counted(
    insts: &[Inst],
    dag: &Dag,
    config: &WeightConfig,
) -> (Vec<u32>, WeightWork) {
    assert_eq!(insts.len(), dag.len(), "DAG does not match region");
    let mut work = WeightWork::default();
    let mut weights: Vec<u32> = insts.iter().map(|i| i.op.latency()).collect();
    if config.kind == SchedulerKind::Traditional
        || !insts.iter().any(|i| is_balanced_load(i, config.kind))
    {
        return (weights, work);
    }

    let analysis: &DagAnalysis = dag.analysis(insts);
    let words = analysis.row_words();

    // Mask (over load slots) of the loads the policy balances.
    let mut bal_mask = vec![0u64; words];
    for (s, &l) in analysis.loads().iter().enumerate() {
        if is_balanced_load(&insts[l as usize], config.kind) {
            bal_mask[s / 64] |= 1 << (s % 64);
        }
    }

    // Per-slot credit accumulators. Each contributor adds its component
    // shares in ascending slot order — the same per-load addition
    // sequence as the reference implementation, so the f64 results are
    // bitwise identical.
    let mut credit = vec![0f64; analysis.num_loads()];
    let mut covered = vec![0u64; words];
    for (i, inst) in insts.iter().enumerate() {
        if !contributes(inst, config.kind) {
            continue;
        }
        let row = analysis.independent_loads(i);
        work.contributors += 1;
        work.row_words += row.len() as u64;
        let mut any = 0u64;
        for w in 0..words {
            covered[w] = row[w] & bal_mask[w];
            any |= covered[w];
        }
        if any == 0 {
            continue;
        }
        let shares = analysis.component_credits(&covered);
        let mut rank = 0usize;
        for (w, &bits) in covered.iter().enumerate() {
            let mut b = bits;
            while b != 0 {
                let s = w * 64 + b.trailing_zeros() as usize;
                credit[s] += shares[rank];
                rank += 1;
                b &= b - 1;
            }
        }
    }

    for (s, &l) in analysis.loads().iter().enumerate() {
        if bal_mask[s / 64] >> (s % 64) & 1 == 1 {
            weights[l as usize] = cap_weight(credit[s], config.cap);
        }
    }
    (weights, work)
}

/// The retained naive weight computation: per-contributor DAG
/// reachability probes and an O(k²) union-find over the covered loads.
///
/// This is the executable specification of the balanced weights — kept
/// as the oracle for the kernel's property tests and as the "before"
/// half of the perf trajectory. Produces bit-identical results to
/// [`compute_weights`].
///
/// # Panics
///
/// Panics if `dag.len() != insts.len()`.
#[must_use]
pub fn compute_weights_reference(insts: &[Inst], dag: &Dag, config: &WeightConfig) -> Vec<u32> {
    assert_eq!(insts.len(), dag.len(), "DAG does not match region");
    let mut weights: Vec<u32> = insts.iter().map(|i| i.op.latency()).collect();

    let balanced: Vec<usize> = (0..insts.len())
        .filter(|&i| is_balanced_load(&insts[i], config.kind))
        .collect();
    if balanced.is_empty() {
        return weights;
    }

    let mut credit = vec![0f64; insts.len()];
    // Scratch buffers reused across contributors.
    let mut covered: Vec<usize> = Vec::new();
    let mut comp_id: Vec<usize> = Vec::new();

    for (i, inst) in insts.iter().enumerate() {
        if !contributes(inst, config.kind) {
            continue;
        }
        covered.clear();
        covered.extend(balanced.iter().copied().filter(|&l| dag.independent(i, l)));
        if covered.is_empty() {
            continue;
        }
        // Union-find over the covered loads under comparability.
        comp_id.clear();
        comp_id.extend(0..covered.len());
        fn find(comp: &mut [usize], mut x: usize) -> usize {
            while comp[x] != x {
                comp[x] = comp[comp[x]];
                x = comp[x];
            }
            x
        }
        for a in 0..covered.len() {
            for b in (a + 1)..covered.len() {
                if dag.comparable(covered[a], covered[b]) {
                    let (ra, rb) = (find(&mut comp_id, a), find(&mut comp_id, b));
                    if ra != rb {
                        comp_id[ra] = rb;
                    }
                }
            }
        }
        let mut comp_size = vec![0usize; covered.len()];
        for a in 0..covered.len() {
            let r = find(&mut comp_id, a);
            comp_size[r] += 1;
        }
        for a in 0..covered.len() {
            let r = find(&mut comp_id, a);
            credit[covered[a]] += 1.0 / comp_size[r] as f64;
        }
    }

    for &l in &balanced {
        weights[l] = cap_weight(credit[l], config.cap);
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::{Inst, Op, Reg, RegClass, RegionId};

    fn r(n: u32) -> Reg {
        Reg::virt(RegClass::Int, n)
    }
    fn f(n: u32) -> Reg {
        Reg::virt(RegClass::Float, n)
    }

    /// The paper's Figure 1: L0, L1 independent; L2 -> L3 serial;
    /// X1, X2 independent FP ops.
    fn figure1() -> Vec<Inst> {
        let l2res = r(10);
        let l3base = r(11);
        vec![
            Inst::load(f(0), r(0), 0).with_region(RegionId::new(0)), // 0: L0
            Inst::load(f(1), r(1), 0).with_region(RegionId::new(1)), // 1: L1
            Inst::load(l2res, r(2), 0).with_region(RegionId::new(2)), // 2: L2
            Inst::op_imm(Op::Add, l3base, l2res, 8),                 // 3: addr for L3
            Inst::load(f(3), l3base, 0).with_region(RegionId::new(3)), // 4: L3
            Inst::op(Op::FAdd, f(4), &[f(6), f(7)]),                 // 5: X1
            Inst::op(Op::FAdd, f(5), &[f(8), f(9)]),                 // 6: X2
        ]
    }

    #[test]
    fn traditional_weights_are_fixed() {
        let insts = figure1();
        let dag = Dag::new(&insts);
        let w = compute_weights(&insts, &dag, &WeightConfig::new(SchedulerKind::Traditional));
        for (i, inst) in insts.iter().enumerate() {
            assert_eq!(w[i], inst.op.latency());
        }
    }

    #[test]
    fn figure1_balanced_weights_split_serial_loads() {
        let insts = figure1();
        let dag = Dag::new(&insts);
        let w = compute_weights(&insts, &dag, &WeightConfig::new(SchedulerKind::Balanced));
        let (l0, l1, l2, l3) = (0, 1, 2, 4);
        // Independent loads L0/L1 receive full credit from X1, X2 and the
        // address add; serial pair L2/L3 shares.
        assert_eq!(w[l0], w[l1]);
        assert!(w[l0] > w[l2], "independent loads get more coverage: {w:?}");
        assert!(w[l2] >= Op::Ld.latency());
        assert_eq!(w[l2], w[l3]);
        // The address add (3) is independent of L0, L1 only; X1/X2
        // independent of all four. L0 credit: X1(1) + X2(1) + add(1) +
        // coverage from the *other loads' slots*? Loads never contribute.
        // Components seen from X1: {L0}, {L1}, {L2,L3} -> L0 += 1,
        // L2 += 0.5. From add: covered {L0, L1} (it's between L2 and L3).
        // Total: L0 = 2 + 1 + 1 + 1 = 5, L2 = 2 + 0.5 + 0.5 = 3.
        assert_eq!(w[l0], 5);
        assert_eq!(w[l2], 3);
    }

    #[test]
    fn kernel_matches_reference_on_figure1() {
        let insts = figure1();
        let dag = Dag::new(&insts);
        for kind in SchedulerKind::ALL {
            let cfg = WeightConfig::new(kind);
            assert_eq!(
                compute_weights(&insts, &dag, &cfg),
                compute_weights_reference(&insts, &dag, &cfg),
                "kernel diverges from reference under {kind:?}"
            );
        }
    }

    #[test]
    fn cap_applies() {
        // One load covered by many independent int ops.
        let mut insts = vec![Inst::load(f(0), r(0), 0).with_region(RegionId::new(0))];
        for k in 0..100 {
            insts.push(Inst::li(r(100 + k), i64::from(k)));
        }
        let dag = Dag::new(&insts);
        let w = compute_weights(&insts, &dag, &WeightConfig::new(SchedulerKind::Balanced));
        assert_eq!(w[0], latency::MAX_LOAD);
        let w = compute_weights(
            &insts,
            &dag,
            &WeightConfig::new(SchedulerKind::Balanced).with_cap(10),
        );
        assert_eq!(w[0], 10);
    }

    #[test]
    fn dependent_instructions_do_not_cover() {
        // load -> fadd consumer: consumer cannot hide its own producer.
        let insts = vec![
            Inst::load(f(0), r(0), 0).with_region(RegionId::new(0)),
            Inst::op(Op::FAdd, f(1), &[f(0), f(0)]),
        ];
        let dag = Dag::new(&insts);
        let w = compute_weights(&insts, &dag, &WeightConfig::new(SchedulerKind::Balanced));
        assert_eq!(w[0], Op::Ld.latency(), "no independent coverage available");
    }

    #[test]
    fn selective_hits_keep_hit_latency_and_donate() {
        use bsched_ir::LocalityHint;
        // A hit load and a miss load, independent; one shared FP op.
        let mut hit = Inst::load(f(0), r(0), 0).with_region(RegionId::new(0));
        hit.hint = LocalityHint::Hit;
        let mut miss = Inst::load(f(1), r(1), 0).with_region(RegionId::new(1));
        miss.hint = LocalityHint::Miss;
        let insts = vec![hit, miss, Inst::op(Op::FAdd, f(2), &[f(3), f(4)])];
        let dag = Dag::new(&insts);

        let sel = compute_weights(
            &insts,
            &dag,
            &WeightConfig::new(SchedulerKind::SelectiveBalanced),
        );
        assert_eq!(sel[0], Op::Ld.latency(), "hit load keeps optimistic weight");
        // Miss gets credit from the FP op *and* from the hit load's slot.
        assert_eq!(sel[1], 4);

        // Plain balanced: both loads balanced, neither donates.
        let bal = compute_weights(&insts, &dag, &WeightConfig::new(SchedulerKind::Balanced));
        assert_eq!(bal[0], 3);
        assert_eq!(bal[1], 3);
    }

    #[test]
    fn stores_contribute_coverage() {
        let insts = vec![
            Inst::load(f(0), r(0), 0).with_region(RegionId::new(0)),
            Inst::store(f(1), r(1), 0).with_region(RegionId::new(1)),
        ];
        let dag = Dag::new(&insts);
        let w = compute_weights(&insts, &dag, &WeightConfig::new(SchedulerKind::Balanced));
        assert_eq!(w[0], 3);
    }

    #[test]
    fn empty_region() {
        let insts: Vec<Inst> = vec![];
        let dag = Dag::new(&insts);
        let w = compute_weights(&insts, &dag, &WeightConfig::default());
        assert!(w.is_empty());
    }
}
