//! The per-run block cache: one lazily built [`Skeleton`] per basic
//! block, keyed by **block identity** (`BlockId` index).
//!
//! Identity keying is deliberate:
//!
//! * Programs are immutable for the lifetime of a run (there is no
//!   self-modifying code in the IR), so a skeleton can never go stale —
//!   the cache has no invalidation path at all, only lazy fills.
//! * Two blocks with identical instruction content still get separate
//!   skeletons ("cross-region reuse" is off): load sites and fetch
//!   addresses are absolute, so sharing a skeleton across addresses
//!   would corrupt per-site attribution and icache behaviour.

use super::skeleton::Skeleton;

/// The block engine's work counts for one run, derived at exit from the
/// skeletons and their visit counts (the replay loop keeps no counters).
/// The unit tests pin them exactly, so redoing skipped work shows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CacheStats {
    /// Skeletons built (one per distinct block visited).
    pub builds: u64,
    /// Block visits replayed.
    pub visits: u64,
    /// `inst_fetch` probes issued: Σ visits × the skeleton's fetch
    /// points (line-run starts, terminator included).
    pub fetches: u64,
    /// Operand-interlock scans on a single-issue machine: Σ visits ×
    /// the skeleton's micro-ops with `MicroOp::chk` set.
    pub scans: u64,
}

/// The cache itself: a dense slot per block of the function, plus a
/// per-block visit counter so whole-run instruction totals can be
/// folded once at exit (`Σ visits × static counts`) instead of
/// accumulated on every visit.
#[derive(Debug)]
pub(crate) struct BlockCache {
    skeletons: Vec<Option<Skeleton>>,
    visits: Vec<u64>,
    builds: u64,
}

impl BlockCache {
    pub fn new(num_blocks: usize) -> Self {
        BlockCache {
            skeletons: vec![None; num_blocks],
            visits: vec![0; num_blocks],
            builds: 0,
        }
    }

    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            builds: self.builds,
            ..CacheStats::default()
        };
        for (sk, n) in self.entries() {
            let fetches = sk.micros.iter().filter(|mo| mo.fetch).count() as u64;
            let scans = sk.micros.iter().filter(|mo| mo.chk).count() as u64;
            stats.visits += n;
            stats.fetches += n * (fetches + u64::from(sk.term_fetch));
            stats.scans += n * scans;
        }
        stats
    }

    /// Returns the skeleton for block `index`, building it on first
    /// visit. Re-entry replays the cached skeleton; the caller is
    /// expected to debug-assert the block's size against
    /// [`Skeleton::n_insts`] per visit to enforce the
    /// no-self-modifying-code invariant the cache relies on.
    pub fn get_or_build(
        &mut self,
        index: usize,
        build: impl FnOnce() -> Skeleton,
    ) -> &Skeleton {
        self.visits[index] += 1;
        if self.skeletons[index].is_none() {
            self.skeletons[index] = Some(build());
            self.builds += 1;
        }
        self.skeletons[index]
            .as_ref()
            .expect("skeleton filled above")
    }

    /// Visited skeletons with their visit counts (skeletons are built
    /// on first visit, so every visited block has one).
    pub fn entries(&self) -> impl Iterator<Item = (&Skeleton, u64)> {
        self.skeletons
            .iter()
            .zip(&self.visits)
            .filter_map(|(sk, &n)| sk.as_ref().map(|sk| (sk, n)))
    }
}
