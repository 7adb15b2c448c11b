//! Experiment cells and their canonical, version-stamped cache keys.

use bsched_pipeline::{CompileOptions, MachineSpec};
use bsched_sim::SimConfig;
use bsched_util::Fnv1a;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// Version stamp of the canonical cell encoding *and* of the on-disk
/// cache document format. Bump whenever either changes meaning — e.g. a
/// new `CompileOptions` field, a simulator metric added, a latency
/// constant recalibrated — so stale cache files are ignored rather than
/// misread.
///
/// v2: `CompileOptions` gained `reference_weights` (naive-vs-kernel
/// weight benching), serialized as `refweights=`.
///
/// v3: cached documents gained the `verified` flag recording that the
/// `bsched-verify` conformance suite passed when the cell was computed;
/// verifying runs treat unverified cached cells as misses.
///
/// v4: `CompileOptions` gained the exact scheduler arm and its
/// `exact_budget` knob, serialized as `sched=exact` / `exact_budget=`.
/// The budget is metrics-relevant — a larger budget can prove a better
/// schedule for the same cell — so it must key the cache; its unit is
/// deterministic search nodes, never wall clock, so budgeted results
/// stay machine-independent and cacheable.
///
/// v5: the MachineSpec redesign added three metrics-relevant machine
/// axes — the branch-predictor kind (`bp_kind=`), the L1D prefetcher
/// (`prefetch=`), and the MSHR policy (`mshr_policy=`) — and the cached
/// memory stats gained prefetch counters.
///
/// v6: the key is derived from the types — the kernel plus the options'
/// derived `Debug` — instead of a hand-written field list, so a new
/// field reaches the key by construction. The spelling changed, so
/// every v5 file is ignored.
///
/// v7: `CompileOptions` lost `reference_weights`, which changes its `Debug`.
///
/// v8: each document records its kernel program's digest
/// ([`bsched_pipeline::Source::digest`]), so an edited kernel's old
/// results are misses; v7 documents have no digest.
pub const CACHE_SCHEMA_VERSION: u32 = 8;

/// One deduplicated unit of experimental work: a kernel compiled under
/// one full option set (the options embed the simulated machine).
///
/// Equality, ordering and hashing all go through the canonical key, so
/// two cells built independently from equal inputs collapse to one grid
/// entry, and `BTreeMap<ExperimentCell, _>` iterates in a stable,
/// platform-independent order.
#[derive(Debug, Clone)]
pub struct ExperimentCell {
    kernel: String,
    opts: CompileOptions,
    canon: String,
    /// FNV-1a of `canon`, computed once, on first use: every store
    /// lookup asks for it, and a grid builds all its cells before it
    /// looks any up.
    hash: OnceLock<u64>,
}

impl ExperimentCell {
    /// Builds a cell and precomputes its canonical key.
    #[must_use]
    pub fn new(kernel: &str, opts: CompileOptions) -> Self {
        let canon = canonical_key(kernel, &opts);
        ExperimentCell {
            kernel: kernel.to_string(),
            opts,
            canon,
            hash: OnceLock::new(),
        }
    }

    /// The kernel name.
    #[must_use]
    pub fn kernel(&self) -> &str {
        &self.kernel
    }

    /// The compile options (machine configuration included).
    #[must_use]
    pub fn options(&self) -> &CompileOptions {
        &self.opts
    }

    /// The canonical key: `v{CACHE_SCHEMA_VERSION};kernel={kernel};`
    /// followed by the options' derived `Debug`, which spells out every
    /// field of the options and of the machine they embed.
    #[must_use]
    pub fn canonical_key(&self) -> &str {
        &self.canon
    }

    /// Stable FNV-1a content hash of the canonical key — the address of
    /// this cell in the on-disk cache.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        *self.hash.get_or_init(|| Fnv1a::hash(self.canon.as_bytes()))
    }
}

impl PartialEq for ExperimentCell {
    fn eq(&self, other: &Self) -> bool {
        self.canon == other.canon
    }
}
impl Eq for ExperimentCell {}

impl PartialOrd for ExperimentCell {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ExperimentCell {
    fn cmp(&self, other: &Self) -> Ordering {
        self.canon.cmp(&other.canon)
    }
}

impl Hash for ExperimentCell {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canon.hash(state);
    }
}

/// `kernel/label`, plus `@machine` when the cell does not run on the
/// default machine, so cells that differ only in the machine print
/// apart in span labels, run reports and errors.
impl std::fmt::Display for ExperimentCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.kernel, self.opts.label())?;
        let sim = self.opts.sim;
        if sim == SimConfig::default() {
            return Ok(());
        }
        let registered = MachineSpec::registry()
            .iter()
            .find(|m| MachineSpec::named(m.name).is_ok_and(|spec| spec.config() == sim));
        match registered {
            Some(m) => write!(f, "@{}", m.name),
            None => write!(
                f,
                "@custom-{:08x}",
                Fnv1a::hash(format!("{sim:?}").as_bytes()) as u32
            ),
        }
    }
}

/// Serializes every field of the cell, the way `sim::sample` keys its
/// plans on a config's `Debug`.
///
/// The derived `Debug` names every field of every nested struct in
/// declaration order, so two option sets differing in *any* field —
/// including ablation knobs like `weight_cap` or the write-buffer
/// depth — produce different keys, a new field cannot be forgotten, and
/// label collisions (e.g. two configs that both print as `BS+LU4`)
/// cannot alias. A toolchain that spelled `Debug` differently would
/// only turn disk hits into misses: the disk document stores the full
/// key and compares it on load.
fn canonical_key(kernel: &str, o: &CompileOptions) -> String {
    format!("v{CACHE_SCHEMA_VERSION};kernel={kernel};{o:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_core::TieBreak;
    use bsched_pipeline::SchedulerKind;

    fn base() -> CompileOptions {
        CompileOptions::new(SchedulerKind::Balanced)
    }

    #[test]
    fn equal_inputs_collapse() {
        let a = ExperimentCell::new("tomcatv", base().with_unroll(4));
        let b = ExperimentCell::new("tomcatv", base().with_unroll(4));
        assert_eq!(a, b);
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn every_knob_changes_the_key() {
        let cell = |o: CompileOptions| ExperimentCell::new("k", o).canonical_key().to_string();
        let reference = cell(base());
        let variants =
            [
                cell(CompileOptions::new(SchedulerKind::Traditional)),
                cell(base().with_unroll(4)),
                cell(base().with_unroll(8)),
                cell(base().with_trace()),
                cell(base().with_locality()),
                cell(base().without_predication()),
                cell(base().with_weight_cap(10)),
                cell(base().with_tie_break(TieBreak::ProgramOrder)),
                cell(base().with_unroll_budget(32)),
                cell(base().without_selective()),
                cell(CompileOptions::new(SchedulerKind::Exact)),
                cell(base().with_exact_budget(7)),
                cell(base().with_sim(SimConfig::default().with_issue(4, 2))),
                cell(base().with_sim(SimConfig::default().with_issue(4, 4))),
                cell(base().with_sim(SimConfig::default().with_mshrs(1))),
                cell(base().with_sim(SimConfig::default().with_ifetch(false))),
                cell(base().with_sim(SimConfig::default().simple_model_1993())),
                cell(base().with_sim(
                    SimConfig::default().with_predictor(bsched_sim::PredictorKind::Gshare),
                )),
                cell(base().with_sim(
                    SimConfig::default().with_predictor(bsched_sim::PredictorKind::TageLite),
                )),
                cell(base().with_sim(
                    SimConfig::default().with_prefetch(bsched_mem::PrefetchKind::NextLine),
                )),
                cell(base().with_sim(
                    SimConfig::default().with_prefetch(bsched_mem::PrefetchKind::Stride),
                )),
                cell(base().with_sim(
                    SimConfig::default().with_mshr_policy(bsched_mem::MshrPolicy::NoMerge),
                )),
                cell(base().with_sim(
                    SimConfig::default().with_mshr_policy(bsched_mem::MshrPolicy::Blocking),
                )),
            ];
        let mut all = vec![reference.clone()];
        all.extend(variants.iter().cloned());
        let distinct: std::collections::HashSet<&String> = all.iter().collect();
        assert_eq!(distinct.len(), all.len(), "some knob did not reach the key");
        for v in &variants {
            assert_ne!(v, &reference);
        }
    }

    #[test]
    fn kernel_reaches_the_key_and_labels_cannot_alias() {
        let a = ExperimentCell::new("tomcatv", base());
        let b = ExperimentCell::new("su2cor", base());
        assert_ne!(a, b);
        // Same display label, different ablation knob: keys differ.
        let c = ExperimentCell::new("tomcatv", base().with_weight_cap(10));
        assert_eq!(a.options().label(), c.options().label());
        assert_ne!(a, c);
    }

    #[test]
    fn key_is_version_stamped() {
        let a = ExperimentCell::new("k", base());
        assert!(a
            .canonical_key()
            .starts_with(&format!("v{CACHE_SCHEMA_VERSION};")));
    }

    #[test]
    fn ordering_is_stable_and_total() {
        let mut cells = [
            ExperimentCell::new("b", base()),
            ExperimentCell::new("a", base().with_unroll(4)),
            ExperimentCell::new("a", base()),
        ];
        cells.sort();
        let keys: Vec<&str> = cells.iter().map(ExperimentCell::canonical_key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn labels_name_the_machine_off_the_default() {
        let on = |sim: SimConfig| ExperimentCell::new("MDG", base().with_sim(sim)).to_string();
        assert_eq!(on(SimConfig::default()), "MDG/BS");
        let mut labels = Vec::new();
        for m in MachineSpec::registry() {
            let sim = MachineSpec::named(m.name)
                .expect("registry names parse")
                .config();
            let label = on(sim);
            if sim == SimConfig::default() {
                assert_eq!(label, "MDG/BS", "{}", m.name);
            } else {
                assert_eq!(label, format!("MDG/BS@{}", m.name));
            }
            labels.push(label);
        }
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), MachineSpec::registry().len(), "{labels:?}");
        let custom = on(SimConfig::default().with_mshrs(3));
        assert!(custom.starts_with("MDG/BS@custom-"), "{custom}");
        assert_eq!(custom.len(), "MDG/BS@custom-".len() + 8, "{custom}");
        assert_eq!(custom, on(SimConfig::default().with_mshrs(3)), "stable");
    }
}
